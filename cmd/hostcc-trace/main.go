// Command hostcc-trace dumps the microscopic time-series figures (8, 18,
// 19) as CSV files for plotting.
//
// Usage:
//
//	hostcc-trace -out /tmp/traces -scale quick
//
// For a Chrome/Perfetto trace of one telemetry-enabled run, use
// `hostcc-bench -timeline out.json`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	hostcc "repro"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hostcc-trace:", err)
		os.Exit(1)
	}
}

// traceFlags holds every hostcc-trace flag; registerFlags binds them to
// a FlagSet so the usage output is testable (see usage_test.go).
type traceFlags struct {
	out       *string
	scaleName *string
}

func registerFlags(fs *flag.FlagSet) traceFlags {
	return traceFlags{
		out:       fs.String("out", "traces", "output directory for CSV files"),
		scaleName: fs.String("scale", "quick", "experiment scale: quick, default, paper"),
	}
}

func run() error {
	fs := flag.NewFlagSet("hostcc-trace", flag.ExitOnError)
	f := registerFlags(fs)
	fs.Parse(os.Args[1:])

	scale := map[string]hostcc.Scale{
		"quick":   hostcc.ScaleQuick,
		"default": hostcc.ScaleDefault,
		"paper":   hostcc.ScalePaper,
	}[*f.scaleName]
	if scale.Name == "" {
		return fmt.Errorf("unknown scale %q (have quick, default, paper)", *f.scaleName)
	}
	if err := os.MkdirAll(*f.out, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}

	fmt.Println("Figure 8 traces (baseline, 1 ms)...")
	for _, tr := range hostcc.RunFigure8(scale) {
		if err := dump(*f.out, "fig8_"+tr.Label+"_is", tr.IS); err != nil {
			return err
		}
		if err := dump(*f.out, "fig8_"+tr.Label+"_bs", tr.BS); err != nil {
			return err
		}
	}

	fmt.Println("Figure 18 traces (ablation, 1 ms)...")
	for _, row := range hostcc.RunFigure18(scale) {
		if err := dump(*f.out, "fig18_"+row.Mode.String()+"_is", row.Trace.IS); err != nil {
			return err
		}
		if err := dump(*f.out, "fig18_"+row.Mode.String()+"_bs", row.Trace.BS); err != nil {
			return err
		}
	}

	fmt.Println("Figure 19 trace (steady state, 250 us)...")
	tr := hostcc.RunFigure19(scale)
	for _, series := range []struct {
		name string
		s    *stats.Series
	}{
		{"fig19_is", tr.IS}, {"fig19_bs", tr.BS}, {"fig19_level", tr.Level},
	} {
		if err := dump(*f.out, series.name, series.s); err != nil {
			return err
		}
	}
	return nil
}

// dump writes one series as CSV, closing the file before reporting
// success so buffered data is never silently lost.
func dump(dir, name string, s *stats.Series) error {
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Println("wrote", path)
	return nil
}
