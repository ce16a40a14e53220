package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloadResult is one workload's measurement in a results file.
type workloadResult struct {
	Name      string                `json:"name"`
	Seed      int64                 `json:"seed"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Digest    string                `json:"digest"`
	Summary   string                `json:"summary"`
	Errors    []string              `json:"errors,omitempty"`
	Metrics   map[string]*series    `json:"metrics"`
	Layers    map[string]layerValue `json:"layers,omitempty"`

	breakdown string // the traced run's layer table (markdown)
}

// series is one end-to-end metric's per-rep values and their summary.
// Five reps support no tail percentile, so none is reported.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
}

func newSeries(unit string, values []float64) *series {
	s := &series{Unit: unit, Values: values, N: len(values), Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	if len(values) > 0 {
		s.Min, s.Max = values[0], values[0]
		for _, v := range values {
			s.Min, s.Max = min(s.Min, v), max(s.Max, v)
		}
	}
	return s
}

// layerValue is one per-layer metric of the traced run.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// env describes the machine and build a result set was measured on.
type env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

func currentEnv() env {
	e := env{
		Commit:     "unknown",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

func (e env) String() string {
	return fmt.Sprintf("commit %s, %s, GOMAXPROCS %d, nproc %d, %s, %s",
		e.Commit, e.Go, e.GOMAXPROCS, e.NProc, e.CPU, e.OS)
}

// resultSet is one invocation's results; a results file holds one or
// more (-append adds a set, so alternating runs can be paired).
type resultSet struct {
	Env       env              `json:"env"`
	Seed      int64            `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
}

type resultsFile struct {
	Sets []resultSet `json:"sets"`
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// writeResults writes set to path, after the sets already there when
// appending.
func writeResults(path string, set resultSet, appendSet bool) error {
	var f resultsFile
	if appendSet {
		old, err := readResults(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		f = old
	}
	f.Sets = append(f.Sets, set)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// metricTable renders a workload's end-to-end metrics, one per line.
func metricTable(r workloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (seed %d): %s; digest %s; %d/%d reps failed\n",
		r.Name, r.Seed, r.Summary, r.Digest, r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "   error: %s\n", e)
	}
	fmt.Fprintf(&b, "   %-13s %-10s %11s %11s %11s %11s %11s %4s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "n")
	for _, d := range endToEnd {
		s := r.Metrics[d.name]
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "   %-13s %-10s %11.4f %11.4f %11.4f %11.4f %11.4f %4d\n",
			d.name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	if r.Attempted > 0 {
		fmt.Fprintf(&b, "   %-13s %-10s %11.4f\n", "error_rate", "fraction", float64(r.Failed)/float64(r.Attempted))
	}
	return b.String()
}

// layerTable renders the traced breakdown: each layer's share of CPU
// samples and of allocations, the CPU charged to each span, and the
// per-layer metrics.
func layerTable(tr *tracer, cpu, allocs folded, layers map[string]layerValue) string {
	var b strings.Builder
	share := func(f folded, k string) float64 { return 100 * float64(f.byLayer[k]) / float64(max(f.total, 1)) }
	b.WriteString("| layer | CPU share | allocation share |\n|---|---:|---:|\n")
	rows := maps.Clone(cpu.byLayer)
	for k := range allocs.byLayer {
		rows[k] += 0
	}
	for _, k := range sortedByValue(rows) {
		fmt.Fprintf(&b, "| %s | %.1f%% | %.1f%% |\n", k, share(cpu, k), share(allocs, k))
	}
	self := tr.selfTimes()
	b.WriteString("\n| span | CPU share (pprof label) | wall self time (s) |\n|---|---:|---:|\n")
	for _, k := range sortedByValue(cpu.bySpan) {
		fmt.Fprintf(&b, "| %s | %.1f%% | %.3f |\n", k, 100*float64(cpu.bySpan[k])/float64(max(cpu.total, 1)), self[k])
	}
	b.WriteString("\n| metric | unit | value |\n|---|---|---:|\n")
	for _, d := range perLayer() {
		fmt.Fprintf(&b, "| %s | %s | %.6g |\n", d.name, d.unit, layers[d.name].Value)
	}
	return b.String()
}

// sortedByValue returns m's keys, largest value first.
func sortedByValue(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
