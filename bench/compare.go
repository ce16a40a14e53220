package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a parent-vs-change comparison of one workload × metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// Pairing rule for claiming a gain: at least minPairs parent/change
// pairs, the change winning at least winShare of them.
const (
	minPairs = 10
	winShare = 0.9
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <parent.json> <change.json>  (from the repository root, which holds BENCHMARK.json)")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	parent, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	change, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%-14s %-13s %28s %28s %6s %5s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "bound", "pairs", "verdict")
	regressions := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			p, c := perRun(parent, w.name, m.Name), perRun(change, w.name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(p, c, m.Bound, m.Better == "higher")
			if v == regressed {
				regressions++
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(stdout, "%-14s %-13s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %5.0f%% %5d  %s\n",
				w.name, m.Name, median(p), pq1, pq3, median(c), cq1, cq3, 100*m.Bound, min(len(p), len(c)), v)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

// perRun collects one workload × metric's value in each set (run) of a
// results file — the set's median — in order, so run i of the parent
// pairs with run i of the change.
func perRun(f resultsFile, workload, metric string) []float64 {
	var v []float64
	for _, s := range f.Sets {
		for _, w := range s.Workloads {
			if w.Name == workload && w.Metrics[metric] != nil {
				v = append(v, w.Metrics[metric].Median)
			}
		}
	}
	return v
}

// verdict compares the change's runs c with the parent's runs p for a
// metric that may worsen by at most bound (a share of the parent's
// median).
//
//   - improved: at least minPairs pairs, the change wins winShare of
//     them (ties count for neither), and the medians differ by more than
//     the parent's interquartile range;
//   - unresolved: a side has a single run (no run-to-run spread), or
//     either side's interquartile range exceeds the bound as a share of
//     its median, unless every change run beats every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
func verdict(p, c []float64, bound float64, higherBetter bool) string {
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pm, cm := median(p), median(c)
	pq1, pq3 := quartiles(p)
	pairs := min(len(p), len(c))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	if pairs >= minPairs && float64(wins) >= winShare*float64(pairs) &&
		better(cm, pm) && math.Abs(cm-pm) > pq3-pq1 {
		return improved
	}
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			allBetter = allBetter && better(x, y)
		}
	}
	if len(p) < 2 || len(c) < 2 || !allBetter && (spread(p) > bound || spread(c) > bound) {
		return unresolved
	}
	worse := (cm - pm) / math.Abs(pm)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return unchanged
}
