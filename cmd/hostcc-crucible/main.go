// Command hostcc-crucible drives the deterministic chaos search: it
// generates seeded random scenarios (topology × congestion control ×
// workload × fault plan), judges each against the oracle battery
// (conservation invariants, liveness verdicts, run-twice determinism of
// every digest frame, goodput-floor and victim tail-latency properties),
// and delta-debugs every failure to a minimal JSON repro.
//
// Usage:
//
//	hostcc-crucible -seeds 64
//	hostcc-crucible -seeds 64 -out found/
//	hostcc-crucible -seeds 64 -canary pcie-extra-credit -stop
//	hostcc-crucible -repro internal/crucible/testdata/corpus/pause-loss-wedge.json
//	hostcc-crucible -corpus internal/crucible/testdata/corpus
//
// Search mode exits 1 when any scenario fails its battery (the findings
// and their minimized repros are printed, and written with -out); replay
// modes exit 1 when a repro no longer reproduces its recorded verdict.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/crucible"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hostcc-crucible:", err)
		os.Exit(1)
	}
}

// crucibleFlags holds every hostcc-crucible flag; registerFlags binds
// them to a FlagSet so the usage output is testable (see usage_test.go).
type crucibleFlags struct {
	seeds     *int
	seedStart *int64
	budget    *int
	maxInj    *int
	floor     *float64
	rttBudget *int
	victim    *time.Duration
	canary    *string
	stop      *bool
	out       *string
	repro     *string
	corpus    *string
	quiet     *bool
}

func registerFlags(fs *flag.FlagSet) *crucibleFlags {
	return &crucibleFlags{
		seeds:     fs.Int("seeds", 16, "number of consecutive generator seeds to search"),
		seedStart: fs.Int64("seed-start", 1, "first generator seed"),
		budget:    fs.Int("budget", 40, "oracle-battery runs allowed per shrink"),
		maxInj:    fs.Int("max-injections", 3, "max fault injections per generated scenario"),
		floor:     fs.Float64("floor", 30, "goodput-floor oracle: required recovery percentage of the pre-fault baseline (negative disables)"),
		rttBudget: fs.Int("rtt-budget", 150, "goodput-floor oracle: recovery budget in RTTs"),
		victim:    fs.Duration("victim-p999", 0, "victim tail oracle: P99.9 RPC latency bound (0 disables)"),
		canary:    fs.String("canary", "", "arm a planted bug on every scenario (self-test; only \"pcie-extra-credit\")"),
		stop:      fs.Bool("stop", false, "stop the search at the first failing scenario"),
		out:       fs.String("out", "", "directory to write minimized repro JSON files into"),
		repro:     fs.String("repro", "", "replay one repro file and verify its recorded verdict, then exit"),
		corpus:    fs.String("corpus", "", "replay every repro in a directory and verify each verdict, then exit"),
		quiet:     fs.Bool("q", false, "suppress per-seed progress lines"),
	}
}

func run() error {
	fs := flag.NewFlagSet("hostcc-crucible", flag.ExitOnError)
	f := registerFlags(fs)
	fs.Parse(os.Args[1:])

	switch {
	case *f.repro != "":
		return replayOne(*f.repro)
	case *f.corpus != "":
		return replayCorpus(*f.corpus)
	}
	return search(f)
}

func replayOne(path string) error {
	r, err := crucible.ReadRepro(path)
	if err != nil {
		return err
	}
	v, err := crucible.Replay(r)
	if err != nil {
		return fmt.Errorf("%s: %w\nverdict: %s", path, err, v)
	}
	fmt.Printf("%s: reproduced %s\n", path, v.Signature())
	return nil
}

func replayCorpus(dir string) error {
	paths, err := crucible.CorpusFiles(dir)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no repro files in %s", dir)
	}
	var failed int
	for _, path := range paths {
		if err := replayOne(path); err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "hostcc-crucible:", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d repros no longer reproduce", failed, len(paths))
	}
	fmt.Printf("corpus ok: %d repros reproduced\n", len(paths))
	return nil
}

func search(f *crucibleFlags) error {
	if *f.canary != "" && *f.canary != crucible.CanaryPCIeExtraCredit {
		return fmt.Errorf("unknown canary %q (only %q)", *f.canary, crucible.CanaryPCIeExtraCredit)
	}
	cfg := crucible.SearchConfig{
		SeedStart: *f.seedStart,
		Seeds:     *f.seeds,
		Gen: crucible.GenConfig{
			MaxInjections:     *f.maxInj,
			GoodputFloorPct:   *f.floor,
			RecoveryRTTBudget: *f.rttBudget,
			VictimP999Ns:      int64(*f.victim),
			Canary:            *f.canary,
		},
		ShrinkBudget: *f.budget,
		StopAtFirst:  *f.stop,
	}
	if !*f.quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	start := time.Now()
	res := crucible.Search(cfg)
	writeSummary(os.Stdout, res.Stats, time.Since(start))
	for _, fd := range res.Findings {
		fmt.Printf("seed %d: %s\n  minimized to %d injection(s): %s\n",
			fd.Seed, fd.Verdict, len(fd.Minimized.Faults), fd.MinVerdict)
		if *f.out != "" {
			if err := os.MkdirAll(*f.out, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*f.out, fmt.Sprintf("seed-%d-%s.json", fd.Seed, fd.MinVerdict.Signature()))
			note := fmt.Sprintf("found by hostcc-crucible seed sweep; original draw had %d injection(s)", len(fd.Scenario.Faults))
			if err := crucible.WriteRepro(path, fd.Repro(note)); err != nil {
				return err
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	if len(res.Findings) > 0 {
		return fmt.Errorf("%d scenario(s) failed the oracle battery", len(res.Findings))
	}
	return nil
}

// writeSummary prints the search's totals, then one line per failed
// oracle in name order, so two identical searches print the same lines.
func writeSummary(w io.Writer, st crucible.Stats, elapsed time.Duration) {
	fmt.Fprintf(w, "searched %d scenario(s), %d battery run(s) (%d shrinking) in %v: %d failure(s)\n",
		st.Scenarios, st.Runs, st.ShrinkRuns, elapsed.Round(time.Millisecond), st.Failures)
	oracles := make([]string, 0, len(st.ByOracle))
	for oracle := range st.ByOracle {
		oracles = append(oracles, oracle)
	}
	sort.Strings(oracles)
	for _, oracle := range oracles {
		fmt.Fprintf(w, "  failed %s: %d\n", oracle, st.ByOracle[oracle])
	}
}
