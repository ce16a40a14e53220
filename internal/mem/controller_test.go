package mem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// latencyCB returns a completion callback that stores each request's
// latency in *lat.
func latencyCB(e *sim.Engine, lat *sim.Time) sim.Callback {
	return sim.Callback{ID: e.Handler(func(_, l uint64) { *lat = sim.Time(l) })}
}

func testConfig() Config {
	return Config{
		TheoreticalBW:   sim.GBps(40),
		EffectiveBW:     sim.GBps(40),
		BaseLatency:     100,
		WriteQueueBytes: 4096,
	}
}

func TestUnloadedLatencyIsBasePlusService(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	var lat sim.Time
	c.Submit(Request{Size: 4000, Class: ClassIIO, CompleteCB: latencyCB(e, &lat)})
	e.Run()
	// 4000B at 40GB/s = 100ns service + 100ns base.
	if lat != 200 {
		t.Fatalf("unloaded latency = %v, want 200ns", lat)
	}
}

func TestQueueingInflatesLatency(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	var last sim.Time
	done := latencyCB(e, &last)
	for i := 0; i < 10; i++ {
		c.Submit(Request{Size: 4000, Class: ClassMApp, CompleteCB: done})
	}
	e.Run()
	// 10 requests x 100ns service, FCFS: the last sees 1000ns + 100 base.
	if last != 1100 {
		t.Fatalf("10th request latency = %v, want 1100ns", last)
	}
}

func TestAdmissionGatedByWriteQueue(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewController(e, testConfig()) // 4096B queue = 102.4ns of service
	var admits []sim.Time
	admit := sim.Callback{ID: e.Handler(func(_, _ uint64) { admits = append(admits, e.Now()) })}
	for i := 0; i < 4; i++ {
		c.Submit(Request{Size: 4096, Class: ClassIIO, AdmitCB: admit})
	}
	e.Run()
	if len(admits) != 4 {
		t.Fatalf("got %d admits", len(admits))
	}
	// First fits in the queue immediately; later ones wait for drain.
	if admits[0] != 0 {
		t.Fatalf("first admit at %v, want 0", admits[0])
	}
	for i := 1; i < 4; i++ {
		if admits[i] <= admits[i-1] {
			t.Fatalf("admissions not strictly increasing: %v", admits)
		}
	}
	// Request i's departure is (i+1)*service; admission is dep - Wq/rate.
	svc := testConfig().EffectiveBW.TimeFor(4096)
	wantLast := 4*svc - svc // dep(3)=4*svc, minus 4096B drain time (=svc)
	if admits[3] != wantLast {
		t.Fatalf("4th admit at %v, want %v", admits[3], wantLast)
	}
}

func TestEfficiencyDeratesService(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	var lat sim.Time
	c.Submit(Request{Size: 4000, Class: ClassMApp, Efficiency: 0.5, CompleteCB: latencyCB(e, &lat)})
	e.Run()
	// Charged as 8000B: 200ns service + 100 base.
	if lat != 300 {
		t.Fatalf("derated latency = %v, want 300ns", lat)
	}
}

func TestBandwidthConservation(t *testing.T) {
	// Offered load far above capacity: delivered bandwidth must not
	// exceed EffectiveBW.
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	c.MarkAll()
	total := 0
	var pump sim.HandlerID
	pump = e.Handler(func(_, _ uint64) {
		if e.Now() >= 100*sim.Microsecond {
			return
		}
		c.Submit(Request{Size: 1024, Class: ClassMApp})
		c.Submit(Request{Size: 1024, Class: ClassIIO})
		total += 2048
		e.ScheduleAfter(10, pump, 0, 0) // 204.8 GB/s offered
	})
	e.ScheduleAfter(0, pump, 0, 0)
	e.RunUntil(100 * sim.Microsecond)
	got := sim.Rate(float64(c.BytesOf(ClassMApp)+c.BytesOf(ClassIIO)) / e.Now().Seconds())
	if got.GBps() > c.Config().EffectiveBW.GBps()*1.001 {
		t.Fatalf("delivered %v exceeds capacity %v", got, c.Config().EffectiveBW)
	}
	if got.GBps() < c.Config().EffectiveBW.GBps()*0.95 {
		t.Fatalf("delivered %v; saturated pipe should run near capacity", got)
	}
}

func TestProportionalSharing(t *testing.T) {
	// Two closed-loop requesters with 2:1 window ratio should get ~2:1
	// bandwidth when the pipe is saturated (the paper's observation that
	// memory bandwidth allocation is proportional to offered load).
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	c.MarkAll()
	var doneA, doneB sim.HandlerID
	runA := func() {
		c.Submit(Request{Size: 2048, Class: ClassMApp, CompleteCB: sim.Callback{ID: doneA}})
	}
	runB := func() {
		c.Submit(Request{Size: 1024, Class: ClassIIO, CompleteCB: sim.Callback{ID: doneB}})
	}
	doneA = e.Handler(func(_, _ uint64) { runA() })
	doneB = e.Handler(func(_, _ uint64) { runB() })
	// A holds 4x2048, B holds 4x1024 outstanding.
	for i := 0; i < 4; i++ {
		runA()
		runB()
	}
	e.RunUntil(1 * sim.Millisecond)
	a, b := float64(c.BytesOf(ClassMApp)), float64(c.BytesOf(ClassIIO))
	ratio := a / b
	if math.Abs(ratio-2) > 0.15 {
		t.Fatalf("bandwidth ratio = %.3f, want ~2", ratio)
	}
}

func TestMetersAndUtilization(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	cfg.TheoreticalBW = sim.GBps(50)
	c := NewController(e, cfg)
	c.MarkAll()
	c.Submit(Request{Size: 50_000, Class: ClassNetCopy})
	e.RunUntil(2 * sim.Microsecond)
	// 50KB over 2us = 25GB/s = 50% of 50GBps theoretical.
	if u := c.UtilizationOf(ClassNetCopy); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	if tu := c.TotalUtilization(); math.Abs(tu-0.5) > 0.01 {
		t.Fatalf("total utilization = %v, want ~0.5", tu)
	}
	if c.BytesOf(ClassNetCopy) != 50_000 {
		t.Fatalf("BytesOf = %d", c.BytesOf(ClassNetCopy))
	}
	if c.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", c.InFlight())
	}
}

func TestEstimateLatencyTracksBacklog(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	idle := c.EstimateLatency(1024)
	for i := 0; i < 100; i++ {
		c.Submit(Request{Size: 4096, Class: ClassMApp})
	}
	loaded := c.EstimateLatency(1024)
	if loaded <= idle {
		t.Fatalf("estimate did not grow under load: idle=%v loaded=%v", idle, loaded)
	}
	if c.QueueDelay() == 0 || c.BacklogBytes() == 0 {
		t.Fatal("backlog should be non-zero with 100 queued requests")
	}
	e.Run()
	if c.QueueDelay() != 0 {
		t.Fatalf("queue delay %v after drain", c.QueueDelay())
	}
}

// Property: completions never exceed capacity and latency is always at
// least service+base, for arbitrary request patterns.
func TestLatencyLowerBoundProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := sim.NewEngine(3)
		c := NewController(e, testConfig())
		ok := true
		check := e.Handler(func(minLat, lat uint64) {
			if lat < minLat {
				ok = false
			}
		})
		for _, s := range sizes {
			size := int(s%8192) + 1
			minLat := testConfig().EffectiveBW.TimeFor(size) + testConfig().BaseLatency
			c.Submit(Request{Size: size, Class: ClassOther, CompleteCB: sim.Callback{ID: check, Arg0: uint64(minLat)}})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewController(e, testConfig())
	for name, req := range map[string]Request{
		"zero size":      {Size: 0},
		"negative size":  {Size: -5},
		"bad efficiency": {Size: 1, Efficiency: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			c.Submit(req)
		}()
	}
	for name, cfg := range map[string]Config{
		"no bw":    {EffectiveBW: 0, TheoreticalBW: 1, WriteQueueBytes: 1},
		"no queue": {EffectiveBW: 1, TheoreticalBW: 1, WriteQueueBytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewController %s did not panic", name)
				}
			}()
			NewController(e, cfg)
		}()
	}
}

func TestClassString(t *testing.T) {
	if ClassIIO.String() != "iio" || ClassMApp.String() != "mapp" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() == "" {
		t.Fatal("unknown class should still format")
	}
}
