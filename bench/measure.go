package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, all
// lower-is-better. Failed reps are counted as attempted/failed rather
// than as a metric.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"allocs_k", "k-objects"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// profiledLayers are the modules whose CPU self time the traced run
// reports (<layer>.self_s), plus the benchmark's own frames.
var profiledLayers = []string{
	"sim", "sim.shard", "fluid", "snapshot", "cpu", "core", "msr", "nic", "pcie",
	"iio", "mem", "cache", "transport", "fabric", "host", "testbed", "evalharness",
	"sweep", "packet", "ring", "stats", "telemetry", "apps", "runtime", "bench",
}

// allocLayers are the modules whose allocations the traced run reports
// (<layer>.allocs).
var allocLayers = []string{"cpu", "core", "msr"}

// counterDefs are the per-layer counts read from the program ([C]) and
// the benchmark's own timers ([T]).
var counterDefs = []metricDef{
	{"sim.events", "count"}, {"sim.heap_peak", "count"}, {"sim.heap_cap", "count"},
	{"sim.shard.exchanged", "count"}, {"sim.shard.imbalance", "ratio"},
	{"fluid.flows", "count"}, {"fluid.ticks", "count"}, {"fluid.promotions", "count"},
	{"snapshot.frames", "count"}, {"snapshot.digest_s", "s"},
	{"cpu.rx_processed", "count"}, {"cpu.mba_writes", "count"},
	{"core.samples", "count"}, {"core.marked", "count"},
	{"nic.arrivals", "count"}, {"nic.drops", "count"},
	{"pcie.tlps", "count"}, {"pcie.credit_stalls", "count"},
	{"iio.rins", "count"}, {"mem.bytes", "bytes"},
	{"transport.retransmits", "count"}, {"transport.timeouts", "count"},
	{"transport.delivered_bytes", "bytes"},
	{"fabric.switch_drops", "count"}, {"fabric.switch_marks", "count"},
	{"fabric.link_bytes", "bytes"},
	{"evalharness.cells", "count"}, {"evalharness.verified", "count"},
}

// derivedDefs are the per-layer metrics computed from the others.
var derivedDefs = []metricDef{
	{"sim.ns_per_event", "ns"},
	{"sim.event_heap_s", "s"},
	{"sim.shard.spin_s", "s"},
	{"fluid.ns_per_flow_tick", "ns"},
	{"sweep.busy_frac", "frac"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"profile.named_frac", "frac"},
	{"trace.overhead", "frac"},
}

// perLayer lists every per-layer metric in report order.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), counterDefs...)
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{l + ".allocs", "count"})
	}
	return append(defs, derivedDefs...)
}

// repResult is what one rep measured.
type repResult struct {
	wall, run, cpu     float64 // seconds
	allocs, allocBytes uint64
	heapPeak           uint64
	gcCPU              float64
	gcCycles           uint64
	out                outcome
	err                error
}

// repMetric reads each end-to-end metric off a rep; setup_s comes from
// the set-up probes instead.
var repMetric = map[string]func(repResult) float64{
	"wall_s":       func(r repResult) float64 { return r.wall },
	"run_s":        func(r repResult) float64 { return r.run },
	"cpu_s":        func(r repResult) float64 { return r.cpu },
	"allocs_k":     func(r repResult) float64 { return float64(r.allocs) / 1e3 },
	"alloc_mb":     func(r repResult) float64 { return float64(r.allocBytes) / 1e6 },
	"live_heap_mb": func(r repResult) float64 { return float64(r.heapPeak) / 1e6 },
}

func column(reps []repResult, f func(repResult) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}

// runRep runs one closed-loop rep: set-up, simulate, verify, release.
// It starts from a collected heap so reps do not pay for each other's
// garbage.
func runRep(w workload, seed int64, sz size, tr *tracer) repResult {
	var r repResult
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cyc0 := gcStats()
	cpu0 := cpuSeconds()
	peak := startHeapPeak()
	r.wall = tr.span("rep", func() {
		r.err = func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			var inst *instance
			tr.span("setup", func() { inst, err = w.build(seed, sz, tr) })
			if err != nil {
				return err
			}
			defer inst.release()
			start := time.Now()
			r.out, err = inst.simulate()
			r.run = time.Since(start).Seconds()
			return err
		}()
	})
	r.cpu = cpuSeconds() - cpu0
	r.heapPeak = peak.stop()
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	gc1, cyc1 := gcStats()
	r.gcCPU, r.gcCycles = gc1-gc0, cyc1-cyc0
	return r
}

// probeSetup times one set-up alone: the rep's set-up phase, or the
// workload's own probe.
func probeSetup(w workload, seed int64, sz size) (float64, error) {
	start := time.Now()
	if w.probe != nil {
		err := w.probe(seed, sz)
		return time.Since(start).Seconds(), err
	}
	inst, err := w.build(seed, sz, nil)
	d := time.Since(start).Seconds()
	if err == nil {
		inst.release()
	}
	return d, err
}

// probeSetups samples set-up time. A set-up takes from a quarter of a
// millisecond (hostbound-3x) to a quarter of a second (fluid-1m), so
// each sample is the mean of a batch of back-to-back set-ups lasting
// about probeBatch, taken from a collected heap: a lone sub-millisecond
// set-up mostly measures where the allocator and the caches happen to
// be. Batches continue until probeBudget has passed, at least minProbes
// and at most maxProbes of them.
func probeSetups(w workload, seed int64, sz size) ([]float64, error) {
	first, err := probeSetup(w, seed, sz)
	if err != nil {
		return nil, err
	}
	batch := int(min(max(probeBatch.Seconds()/first, 1), maxBatch))
	var samples []float64
	start := time.Now()
	for len(samples) < maxProbes && (len(samples) < minProbes || time.Since(start) < probeBudget) {
		runtime.GC()
		var sum float64
		for i := 0; i < batch; i++ {
			d, err := probeSetup(w, seed, sz)
			if err != nil {
				return samples, err
			}
			sum += d
		}
		samples = append(samples, sum/float64(batch))
	}
	return samples, nil
}

// phase bounds a run of reps: exactly reps of them, or (reps == 0) as
// many as start before seconds have passed, at least one.
type phase struct {
	reps    int
	seconds float64
}

func (p phase) more(done int, elapsed time.Duration) bool {
	if p.reps > 0 {
		return done < p.reps
	}
	return done == 0 || elapsed.Seconds() < p.seconds
}

// Set-up probing (see probeSetups).
const (
	probeBatch  = 20 * time.Millisecond
	maxBatch    = 100
	minProbes   = 5
	maxProbes   = 50
	probeBudget = time.Second
)

// plan is one workload's measurement: set-up probes, untraced reps for
// the end-to-end metrics, then (optionally) traced reps for the
// per-layer metrics.
type plan struct {
	untraced phase
	traced   *phase
	traceDir string
}

// measure runs a plan and summarizes it.
func measure(w workload, seed int64, sz size, p plan, progress func(string)) workloadResult {
	res := workloadResult{Name: w.name, Seed: seed, Metrics: map[string]*series{}}
	var firstDigest *uint64
	check := func(r repResult) {
		res.Attempted++
		err := r.err
		if err == nil {
			err = r.out.band
		}
		if err == nil && firstDigest != nil && r.out.digest != *firstDigest {
			err = fmt.Errorf("digest %#016x differs from rep 1's %#016x", r.out.digest, *firstDigest)
		}
		if r.err == nil && firstDigest == nil {
			d := r.out.digest
			firstDigest = &d
			res.Digest = fmt.Sprintf("%#016x", d)
			res.Summary = r.out.summary
		}
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
	}

	setups, err := probeSetups(w, seed, sz)
	if err != nil {
		res.Attempted++
		res.Failed++
		res.Errors = append(res.Errors, "set-up probe: "+err.Error())
	}
	res.Metrics["setup_s"] = newSeries("s", setups)

	var untraced []repResult
	start := time.Now()
	for p.untraced.more(len(untraced), time.Since(start)) {
		r := runRep(w, seed, sz, nil)
		check(r)
		untraced = append(untraced, r)
		progress(fmt.Sprintf("%s rep %d: %.3fs wall, %.3fs run", w.name, len(untraced), r.wall, r.run))
	}
	for _, d := range endToEnd {
		if f := repMetric[d.name]; f != nil {
			res.Metrics[d.name] = newSeries(d.unit, column(untraced, f))
		}
	}

	if p.traced != nil {
		layers, table, err := traceWorkload(w, seed, sz, *p.traced, untraced, check, p.traceDir, progress)
		if err != nil {
			res.Errors = append(res.Errors, "trace: "+err.Error())
			res.Failed++
			res.Attempted++
		}
		res.Layers, res.breakdown = layers, table
	}
	return res
}

// traceWorkload runs the traced reps under the CPU profiler, with
// allocation profiling at a fine rate, and derives the per-layer
// metrics. untraced are the reps the end-to-end metrics came from: the
// base of the tracing overhead and of the per-event costs.
func traceWorkload(w workload, seed int64, sz size, ph phase, untraced []repResult,
	check func(repResult), dir string, progress func(string)) (map[string]layerValue, string, error) {
	tr := newTracer()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 4096
	defer func() { runtime.MemProfileRate = rate }()
	allocBefore, err := allocProfile()
	if err != nil {
		return nil, "", err
	}
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return nil, "", err
	}
	var traced []repResult
	start := time.Now()
	for ph.more(len(traced), time.Since(start)) {
		r := runRep(w, seed, sz, tr)
		check(r)
		traced = append(traced, r)
		progress(fmt.Sprintf("%s traced rep %d: %.3fs wall", w.name, len(traced), r.wall))
	}
	pprof.StopCPUProfile()
	allocAfter, err := allocProfile()
	if err != nil {
		return nil, "", err
	}

	cpuSamples, err := parseProfile(cpuProf.Bytes())
	if err != nil {
		return nil, "", err
	}
	cpu := fold(cpuSamples, 1) // [samples, cpu nanoseconds]
	before, err := parseProfile(allocBefore)
	if err != nil {
		return nil, "", err
	}
	after, err := parseProfile(allocAfter)
	if err != nil {
		return nil, "", err
	}
	allocs := fold(after, 0).minus(fold(before, 0)) // [alloc_objects, ...]

	n := float64(len(traced))
	v := map[string]float64{}
	for _, d := range counterDefs {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.out.counters[d.name])
		}
		v[d.name] = median(xs)
	}
	for _, l := range profiledLayers {
		v[l+".self_s"] = float64(cpu.byLayer[l]) / 1e9 / n
	}
	for _, l := range allocLayers {
		v[l+".allocs"] = float64(allocs.byLayer[l]) / n
	}
	v["sim.shard.spin_s"] = float64(cpu.barrier) / 1e9 / n
	v["sim.event_heap_s"] = float64(cpu.eventHeap) / 1e9 / n
	if cpu.total > 0 {
		v["profile.named_frac"] = 1 - float64(cpu.byLayer["bench"])/float64(cpu.total)
	}
	base := func(reps []repResult, f func(repResult) float64) float64 { return median(column(reps, f)) }
	if ev := v["sim.events"]; ev > 0 {
		v["sim.ns_per_event"] = base(untraced, repMetric["run_s"]) * 1e9 / ev
	}
	if ft := v["fluid.flows"] * v["fluid.ticks"]; ft > 0 {
		v["fluid.ns_per_flow_tick"] = v["fluid.self_s"] * 1e9 / ft
	}
	if wall := base(untraced, repMetric["wall_s"]); wall > 0 {
		v["sweep.busy_frac"] = base(untraced, repMetric["cpu_s"]) / (wall * float64(w.workers))
		v["trace.overhead"] = base(traced, repMetric["wall_s"])/wall - 1
	}
	v["runtime.gc_cpu_s"] = base(untraced, func(r repResult) float64 { return r.gcCPU })
	v["runtime.gc_cycles"] = base(untraced, func(r repResult) float64 { return float64(r.gcCycles) })

	layers := map[string]layerValue{}
	for _, d := range perLayer() {
		layers[d.name] = layerValue{Unit: d.unit, Value: v[d.name]}
	}
	table := layerTable(tr, cpu, allocs, layers)
	if dir != "" {
		if err := writeTrace(filepath.Join(dir, w.name), tr, cpuProf.Bytes(), allocAfter, table); err != nil {
			return layers, table, err
		}
	}
	return layers, table, nil
}

// allocProfile snapshots the cumulative allocation profile as of a fresh
// GC cycle.
func allocProfile() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// writeTrace writes one workload's traced breakdown: the spans (Chrome
// trace), both profiles and the per-layer table.
func writeTrace(dir string, tr *tracer, cpuProf, allocProf []byte, table string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := tr.chromeTrace()
	if err != nil {
		return err
	}
	files := map[string][]byte{
		"spans.json":   spans,
		"cpu.pprof":    cpuProf,
		"allocs.pprof": allocProf,
		"layers.md":    []byte(table),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcStats reads the runtime's cumulative GC CPU estimate and cycle count.
func gcStats() (float64, uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(n=4); a single value is its own quartiles.
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}
