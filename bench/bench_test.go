package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/testbed"
)

// TestSmoke runs the tiny variant of every workload twice, set-up probes
// and traced rep included, and checks the output contract: every metric
// BENCHMARK.json names is emitted with its unit, no rep fails, and the
// program's own counts repeat exactly.
func TestSmoke(t *testing.T) {
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}

	p := plan{untraced: phase{reps: 1}, traced: &phase{reps: 1}}
	quiet := func(string) {}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(w.name, func(t *testing.T) {
			a := measure(w, 42, tinySize, p, quiet)
			b := measure(w, 42, tinySize, p, quiet)
			for _, r := range []workloadResult{a, b} {
				if r.Failed != 0 || r.Attempted != 2 {
					t.Fatalf("%d of %d reps failed: %v", r.Failed, r.Attempted, r.Errors)
				}
			}
			if a.Digest != b.Digest {
				t.Errorf("digest %s, then %s", a.Digest, b.Digest)
			}
			for _, traced := range []bool{false, true} {
				line, err := resultLine(a, traced)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Metrics map[string]struct{ Unit string } `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", traced, len(got.Metrics), len(want))
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s emitted as %+v (present %v), want unit %s", traced, m.Name, g, ok, m.Unit)
					}
				}
			}
			// [C] counts come from the deterministic simulation; the
			// benchmark's timer (snapshot.digest_s) does not.
			for _, d := range counterDefs {
				if d.name == "snapshot.digest_s" {
					continue
				}
				if x, y := a.Layers[d.name].Value, b.Layers[d.name].Value; x != y {
					t.Errorf("%s: %v, then %v", d.name, x, y)
				}
			}
		})
	}
}

// TestDriverEquivalence checks, at 16 senders, that the benchmark's
// scale-out driver reaches the same final state as testbed.RunScaleOut
// for the same config: the benchmark times the program users run.
func TestDriverEquivalence(t *testing.T) {
	sz := tinySize
	sz.scaleWarmup, sz.scaleMeasure = 500*sim.Microsecond, sim.Millisecond
	leaf := leafspineConfig(42, sz)
	leaf.Senders, leaf.Receivers, leaf.Flows = 16, 2, 16
	fluid := fluidConfig(42, sz)
	fluid.Senders, fluid.Flows = 16, 16
	for name, cfg := range map[string]testbed.ScaleOutConfig{"leafspine": leaf, "fluid": fluid} {
		inst, err := buildScaleOut(cfg, bandFor(tinySize, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := inst.simulate()
		inst.release()
		if err != nil {
			t.Fatal(err)
		}
		want, err := testbed.RunScaleOut(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.digest != want.Digest || out.counters["sim.events"] != float64(want.Events) ||
			out.counters["snapshot.frames"] != float64(want.Frames) {
			t.Errorf("%s: benchmark digest %#016x, %v events, %v frames; RunScaleOut %#016x, %d events, %d frames",
				name, out.digest, out.counters["sim.events"], out.counters["snapshot.frames"],
				want.Digest, want.Events, want.Frames)
		}
	}
}

// TestFold checks the profile-folding rules on synthetic stacks.
func TestFold(t *testing.T) {
	const r = "repro/internal/"
	samples := []stackSample{
		// Innermost repro frame wins: an allocation in the MApp belongs to cpu.
		{funcs: []string{"runtime.mallocgc", r + "cpu.(*MApp).coreIssue.func1", r + "sim.(*Engine).Step", "main.runRep"},
			values: []int64{1, 10}, labels: map[string]string{"span": "measure"}},
		// The event heap is sim, and its own bucket.
		{funcs: []string{r + "sim.evLess", r + "sim.(*eventHeap).siftDown", r + "sim.(*Engine).Step"},
			values: []int64{1, 20}, labels: map[string]string{"span": "measure"}},
		// Generic instantiations name other packages inside brackets.
		{funcs: []string{r + "sim.(*Slots[go.shape.struct { repro/internal/mem.size int }]).Take", r + "mem.(*Controller).Submit"},
			values: []int64{1, 40}, labels: map[string]string{"span": "warmup"}},
		// Shard-group frames split out as sim.shard; barrier waits are a bucket.
		{funcs: []string{"runtime.chanrecv1", r + "sim.(*ShardGroup).runWindow", r + "sim.(*ShardGroup).RunUntil"},
			values: []int64{1, 80}, labels: map[string]string{"span": "shard-workers"}},
		{funcs: []string{r + "sim.(*Boundary).Send", r + "fabric.(*Link).deliver"}, values: []int64{1, 160}},
		// No repro frame: the runtime, or the benchmark when main is on the stack.
		{funcs: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, values: []int64{1, 320}},
		{funcs: []string{"sort.Float64s", "main.median"}, values: []int64{1, 640}},
	}
	f := fold(samples, 1)
	wantLayer := map[string]int64{"cpu": 10, "sim": 60, "sim.shard": 240, "runtime": 320, "bench": 640}
	wantSpan := map[string]int64{"measure": 30, "warmup": 40, "shard-workers": 80, "-": 1120}
	for k, v := range wantLayer {
		if f.byLayer[k] != v {
			t.Errorf("layer %s = %d, want %d (all: %v)", k, f.byLayer[k], v, f.byLayer)
		}
	}
	for k, v := range wantSpan {
		if f.bySpan[k] != v {
			t.Errorf("span %s = %d, want %d (all: %v)", k, f.bySpan[k], v, f.bySpan)
		}
	}
	if f.total != 1270 || f.eventHeap != 20 || f.barrier != 80 {
		t.Errorf("total %d, event heap %d, barrier %d; want 1270, 20, 80", f.total, f.eventHeap, f.barrier)
	}
	if d := f.minus(fold(samples[:1], 1)); d.byLayer["cpu"] != 0 || d.total != 1260 {
		t.Errorf("minus: cpu %d, total %d; want 0, 1260", d.byLayer["cpu"], d.total)
	}
}

// TestParseProfileLabels parses a real CPU profile and finds a sample of
// a labelled busy loop carrying its span label and its frame.
func TestParseProfileLabels(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skip("CPU profiler busy:", err)
		}
		pprof.Do(context.Background(), pprof.Labels("span", "busy"), func(context.Context) { spin(300 * time.Millisecond) })
		pprof.StopCPUProfile()
		samples, err := parseProfile(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			if s.labels["span"] == "busy" && slices.ContainsFunc(s.funcs, func(f string) bool {
				return strings.HasSuffix(f, ".spin")
			}) {
				return
			}
		}
	}
	t.Error("no CPU samples of the labelled loop found in five profiles")
}

var sink float64

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestVerdict covers each verdict of the parent-vs-change comparison.
func TestVerdict(t *testing.T) {
	steady := func(base float64, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = base * (1 + 0.002*float64(i%3))
		}
		return v
	}
	noisy := []float64{1, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1}
	cases := []struct {
		name string
		p, c []float64
		want string
	}{
		{"same", steady(1, 10), steady(1, 10), unchanged},
		{"faster, 10 pairs", steady(1, 10), steady(0.8, 10), improved},
		{"faster, too few pairs", steady(1, 5), steady(0.8, 5), unchanged},
		{"slower past the bound", steady(1, 10), steady(1.2, 10), regressed},
		{"slower within the bound", steady(1, 10), steady(1.05, 10), unchanged},
		{"spread wider than the bound", noisy, noisy, unresolved},
		{"a single run", []float64{1}, []float64{1}, unresolved},
	}
	for _, c := range cases {
		if got := verdict(c.p, c.c, 0.1, false); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
