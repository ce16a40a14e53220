// Command bench is the simulator's benchmark: four reference workloads
// run as a closed loop (one client; each rep starts when the previous
// one ends), measured end to end in host time and attributed layer by
// layer. See README.md.
//
//	bash bench/run.sh -seed 42 -reps 5 -out results.json   all four workloads
//	bash bench/run.sh -workload fluid-1m -seconds 15        one workload, JSON last line
//	bash bench/run.sh -trace 1 -trace-dir traces            add a traced rep per workload
//	bash bench/run.sh compare parent.json change.json       verdict per workload × metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload alone and print its result as a JSON object on the last line (default: all four, as tables)")
	seed := fs.Int64("seed", 42, "seed the workloads' inputs are made from")
	reps := fs.Int("reps", 5, "measured reps per workload, when -seconds is 0")
	seconds := fs.Float64("seconds", 0, "measure each workload for this many seconds (reps keep starting until it has passed) instead of -reps")
	traceFlag := fs.Int("trace", 0, "1 = traced reps after the measured ones, reporting per-layer metrics")
	traceDir := fs.String("trace-dir", "", "write each workload's spans, profiles and layer table under this directory (needs -trace 1)")
	out := fs.String("out", "", "write the results as JSON to this file")
	appendOut := fs.Bool("append", false, "add this run's results to the -out file instead of replacing it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *reps < 1 || *seconds < 0 ||
		(*traceDir != "" && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments (see -h)")
		return 2
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	untraced := phase{reps: *reps}
	if *seconds > 0 {
		untraced = phase{seconds: *seconds}
	}
	p := plan{untraced: untraced, traceDir: *traceDir}
	if *traceFlag == 1 {
		// Tracing gets its own reps; the untraced reps are the base of
		// the tracing overhead. A single workload run spends its budget
		// on traced reps, after set-up probes (which warm the heap) and
		// one untraced rep.
		p.traced = &phase{reps: 1}
		if *name != "" {
			p.untraced = phase{reps: 1}
			p.traced = &untraced
		}
	}

	e := currentEnv()
	if *name == "" {
		fmt.Fprintf(stdout, "bench: %s\n", e)
	}
	progress := func(s string) { fmt.Fprintln(stderr, "  ", s) }
	set := resultSet{Env: e, Seed: *seed}
	for _, w := range selected {
		r := measure(w, *seed, fullSize, p, progress)
		set.Workloads = append(set.Workloads, r)
		fmt.Fprint(stdout, metricTable(r))
	}
	if *traceDir != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# Traced breakdown (seed %d)\n\n%s\n", *seed, e)
		for _, r := range set.Workloads {
			fmt.Fprintf(&b, "\n## %s\n\n%s", r.Name, r.breakdown)
		}
		if err := os.WriteFile(filepath.Join(*traceDir, "breakdown.md"), []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeResults(*out, set, *appendOut); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		line, err := resultLine(set.Workloads[0], *traceFlag == 1)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	for _, r := range set.Workloads {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// resultLine is the one-line JSON result of a single-workload run: the
// end-to-end metrics' medians, or with tracing the per-layer metrics.
func resultLine(r workloadResult, traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]metric{}
	if traced {
		for _, d := range perLayer() {
			m[d.name] = metric{r.Layers[d.name].Value, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			if s := r.Metrics[d.name]; s != nil {
				m[d.name] = metric{s.Median, d.unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m})
}
