// Package mem models the memory interconnect: the memory controller and
// DRAM behind it. It is the congestion point of the paper — a saturated
// memory controller inflates IIO-to-memory latency (ℓm), which backs up
// into the IIO buffer, exhausts PCIe credits, and ultimately causes
// queueing and drops at the NIC (§2.1's "domino effect").
//
// The controller is an analytic FCFS rate server: each request's departure
// time is computed in O(1) as
//
//	dep = max(now, lastDeparture) + chargedSize/rate
//
// which yields the two properties §2.2 identifies as root causes of host
// congestion — load-proportional bandwidth sharing across requesters, and
// queueing latency that grows with total offered load — without simulating
// individual DRAM banks.
package mem

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Class labels the requester of a memory transaction, for bandwidth
// accounting (the memory-bandwidth-utilization panels of Figs 2, 9, 10...).
type Class int

// Traffic classes.
const (
	ClassIIO      Class = iota // NIC DMA writes issued by the IIO
	ClassEviction              // DDIO cache evictions
	ClassNetCopy               // CPU packet processing (copy to app buffers)
	ClassMApp                  // host-local application traffic (the MApp)
	ClassOther                 // anything else (RPC app work, etc.)
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassIIO:
		return "iio"
	case ClassEviction:
		return "eviction"
	case ClassNetCopy:
		return "netcopy"
	case ClassMApp:
		return "mapp"
	case ClassOther:
		return "other"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// CacheLine is the transfer granularity between IIO/LLC and the memory
// controller (§2.1, footnote 1).
const CacheLine = 64

// Config holds the memory-system parameters. Defaults follow the paper's
// testbed: DDR4 on two channels, 46.9 GBps theoretical capacity, with an
// effective saturation bandwidth below theoretical (§2.2, footnote 2).
type Config struct {
	// TheoreticalBW is the maximum theoretical memory bandwidth; the
	// denominator of every "memory bandwidth utilization" figure.
	TheoreticalBW sim.Rate
	// EffectiveBW is the service rate of the controller: achievable
	// bandwidth for a well-behaved streaming workload.
	EffectiveBW sim.Rate
	// BaseLatency is the unloaded DRAM access latency.
	BaseLatency sim.Time
	// WriteQueueBytes bounds the controller's write queue: an IIO write is
	// admitted (and its PCIe credit freed) only once the queue backlog
	// ahead of it has drained below this bound (§2.1, step 2).
	WriteQueueBytes int
	// WriteLoadFactor scales the bank-contention latency applied to
	// write-queue admission: under load, reads are prioritized by the
	// DRAM scheduler and queued writes drain slower, which is what
	// inflates IIO-to-memory admission latency (ℓm) and starves PCIe
	// credits (§2.1).
	WriteLoadFactor float64
	// LoadLatencyNs adds bank-contention latency that grows superlinearly
	// with concurrent hardware requests (weighted by Request.Weight):
	// extra = LoadLatencyNs × inFlight^1.5.
	// This reproduces DRAM access latency rising well before full
	// bandwidth saturation — the cause of the 1x "compute bottleneck"
	// regime in Figure 2 (§2.2).
	LoadLatencyNs float64
}

// DefaultConfig returns the paper-calibrated memory configuration.
func DefaultConfig() Config {
	return Config{
		TheoreticalBW:   sim.GBps(46.9),
		EffectiveBW:     sim.GBps(37.5),
		BaseLatency:     90 * sim.Nanosecond,
		WriteQueueBytes: 2 * 1024,
		LoadLatencyNs:   0.08,
		WriteLoadFactor: 2.0,
	}
}

// Request describes one memory transaction.
type Request struct {
	Size  int   // bytes moved
	Class Class // accounting class
	// Efficiency derates the service rate for this request's access
	// pattern (1.0 = streaming; <1 charges extra service time, modeling
	// bank conflicts / read-write turnarounds). Zero means 1.0.
	Efficiency float64
	// Weight is the number of concurrent hardware requests this batched
	// request stands for (a MApp core's request represents LFB ~ 11
	// outstanding cacheline accesses). It feeds the load-latency term;
	// zero means 1.
	Weight int
	// AdmitCB fires when the request is admitted into the controller
	// queue (IIO uses this to replenish PCIe credits). Optional.
	AdmitCB sim.Callback
	// CompleteCB fires when the transaction finishes (data in DRAM /
	// data returned). It is dispatched as (Arg0, uint64(lat)): the
	// measured latency replaces Arg1. Optional.
	CompleteCB sim.Callback
}

// Controller is the shared memory controller.
type Controller struct {
	e   *sim.Engine
	cfg Config

	lastDep  sim.Time // analytic pipe state
	inFlight int      // weighted hardware requests outstanding

	meters  [NumClasses]stats.Meter
	recent  [NumClasses]rateTracker
	backlog stats.TimeWeighted // queued bytes over time (diagnostics)

	// completeH + comps carry per-request completion state through the
	// completion event without a closure per request.
	completeH sim.HandlerID
	comps     sim.Slots[completion]

	// Submitted counts all requests, for sanity checks.
	Submitted int64
}

// completion is the per-request state needed when the completion event
// fires.
type completion struct {
	weight    int
	size      int
	class     Class
	submitted sim.Time
	cb        sim.Callback
}

// NewController creates a memory controller on engine e.
func NewController(e *sim.Engine, cfg Config) *Controller {
	if cfg.EffectiveBW <= 0 || cfg.TheoreticalBW <= 0 {
		panic("mem: non-positive bandwidth")
	}
	if cfg.WriteQueueBytes <= 0 {
		panic("mem: non-positive write queue")
	}
	c := &Controller{e: e, cfg: cfg}
	c.completeH = e.Handler(c.complete)
	return c
}

// complete is the completion event handler; arg0 is the completion slot.
func (c *Controller) complete(slot, _ uint64) {
	comp := c.comps.Take(slot)
	now := c.e.Now()
	c.inFlight -= comp.weight
	c.meters[comp.class].Add(int64(comp.size))
	c.recent[comp.class].add(now, float64(comp.size))
	if comp.cb.Set() {
		c.e.Dispatch(comp.cb.ID, comp.cb.Arg0, uint64(now-comp.submitted))
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Submit enqueues a request. It computes the admission and completion
// times analytically and schedules the callbacks.
func (c *Controller) Submit(req Request) {
	if req.Size <= 0 {
		panic("mem: request with non-positive size")
	}
	eff := req.Efficiency
	if eff == 0 {
		eff = 1
	}
	if eff < 0 || eff > 1 {
		panic("mem: efficiency out of (0,1]")
	}
	w := req.Weight
	if w <= 0 {
		w = 1
	}
	now := c.e.Now()
	c.Submitted++
	c.inFlight += w

	charged := float64(req.Size) / eff
	service := c.cfg.EffectiveBW.TimeFor(int(charged))
	start := max(now, c.lastDep)
	dep := start + service
	c.lastDep = dep
	c.backlog.Set(now, float64(dep-now)*c.cfg.EffectiveBW.BytesPerSec()/1e9)

	// Admission: when the backlog ahead has drained below the write
	// queue bound. A request that fits immediately is admitted now.
	admit := max(now, dep-c.cfg.EffectiveBW.TimeFor(c.cfg.WriteQueueBytes)) +
		sim.Time(c.cfg.WriteLoadFactor*float64(c.loadLatency()))
	c.e.Invoke(admit, req.AdmitCB)

	complete := dep + c.cfg.BaseLatency + c.loadLatency()
	slot := c.comps.Put(completion{
		weight:    w,
		size:      req.Size,
		class:     req.Class,
		submitted: now,
		cb:        req.CompleteCB,
	})
	c.e.Schedule(complete, c.completeH, slot, 0)
}

// rateTracker estimates a class's recent bandwidth with exponential decay
// (~50 us horizon); unlike the windowed meters it needs no Mark calls, so
// consumers (e.g. the DDIO pollution model) can read it continuously.
type rateTracker struct {
	last sim.Time
	rate float64 // bytes/sec
}

const rateTrackerTau = 50 * sim.Microsecond

func (rt *rateTracker) add(now sim.Time, bytes float64) {
	rt.decay(now)
	rt.rate += bytes / rateTrackerTau.Seconds()
	rt.last = now
}

func (rt *rateTracker) decay(now sim.Time) {
	if dt := now - rt.last; dt > 0 {
		rt.rate *= math.Exp(-float64(dt) / float64(rateTrackerTau))
		rt.last = now
	}
}

// RecentRate returns the exponentially decayed recent bandwidth of a
// class (no measurement window required).
func (c *Controller) RecentRate(class Class) sim.Rate {
	rt := &c.recent[class]
	rt.decay(c.e.Now())
	return sim.Rate(rt.rate)
}

// loadLatency is the bank-contention latency at the current concurrency.
func (c *Controller) loadLatency() sim.Time {
	if c.cfg.LoadLatencyNs == 0 || c.inFlight == 0 {
		return 0
	}
	n := float64(c.inFlight)
	return sim.Time(c.cfg.LoadLatencyNs * n * math.Sqrt(n))
}

// QueueDelay returns the current time a newly arriving request would wait
// before service begins.
func (c *Controller) QueueDelay() sim.Time {
	d := c.lastDep - c.e.Now()
	if d < 0 {
		return 0
	}
	return d
}

// BacklogBytes returns the bytes currently queued awaiting service.
func (c *Controller) BacklogBytes() float64 {
	return c.cfg.EffectiveBW.BytesIn(c.QueueDelay())
}

// InFlight returns the number of submitted-but-incomplete requests.
func (c *Controller) InFlight() int { return c.inFlight }

// EstimateLatency predicts the completion latency a request of the given
// size would see if submitted now (queue wait + service + base + load).
func (c *Controller) EstimateLatency(size int) sim.Time {
	return c.QueueDelay() + c.cfg.EffectiveBW.TimeFor(size) + c.cfg.BaseLatency + c.loadLatency()
}

// MarkAll snapshots every class meter at time t (start of a measurement
// window).
func (c *Controller) MarkAll() {
	for i := range c.meters {
		c.meters[i].Mark(c.e.Now())
	}
}

// RateOf returns the average bandwidth of a class since its last mark.
func (c *Controller) RateOf(class Class) sim.Rate {
	return c.meters[class].RateSinceMark(c.e.Now())
}

// UtilizationOf returns a class's bandwidth since the last mark as a
// fraction of theoretical capacity — the y-axis of the paper's
// memory-bandwidth-utilization panels.
func (c *Controller) UtilizationOf(class Class) float64 {
	return float64(c.RateOf(class)) / float64(c.cfg.TheoreticalBW)
}

// TotalUtilization sums utilization across all classes.
func (c *Controller) TotalUtilization() float64 {
	var u float64
	for cl := Class(0); cl < NumClasses; cl++ {
		u += c.UtilizationOf(cl)
	}
	return u
}

// BytesOf returns the total bytes moved for a class since the last mark.
func (c *Controller) BytesOf(class Class) int64 {
	return c.meters[class].BytesSinceMark()
}

// RegisterInstruments registers the controller's metrics under prefix:
// per-class byte counters plus queueing/backlog/utilization gauges.
func (c *Controller) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	for cl := Class(0); cl < NumClasses; cl++ {
		cl := cl
		reg.Counter(prefix+"/mem/bytes/"+cl.String(), "bytes",
			"bytes moved for the "+cl.String()+" class",
			func() float64 { return float64(c.meters[cl].Total()) })
	}
	reg.Gauge(prefix+"/mem/queue-delay", "ns", "current queueing delay at the controller",
		func() float64 { return float64(c.QueueDelay()) })
	reg.Gauge(prefix+"/mem/backlog", "bytes", "bytes admitted but not yet departed",
		func() float64 { return c.BacklogBytes() })
	reg.Gauge(prefix+"/mem/in-flight", "reqs", "requests currently in the controller",
		func() float64 { return float64(c.InFlight()) })
	reg.Gauge(prefix+"/mem/utilization", "frac", "total utilization vs theoretical bandwidth",
		func() float64 { return c.TotalUtilization() })
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	if c.TheoreticalBW <= 0 {
		return fmt.Errorf("mem: TheoreticalBW %v must be positive", c.TheoreticalBW)
	}
	if c.EffectiveBW <= 0 || c.EffectiveBW > c.TheoreticalBW {
		return fmt.Errorf("mem: EffectiveBW %v outside (0, TheoreticalBW]", c.EffectiveBW)
	}
	if c.BaseLatency < 0 {
		return fmt.Errorf("mem: negative BaseLatency %v", c.BaseLatency)
	}
	if c.WriteQueueBytes <= 0 {
		return fmt.Errorf("mem: WriteQueueBytes %d must be positive", c.WriteQueueBytes)
	}
	if c.WriteLoadFactor < 0 || c.LoadLatencyNs < 0 {
		return fmt.Errorf("mem: negative load factors (%v, %v)", c.WriteLoadFactor, c.LoadLatencyNs)
	}
	return nil
}
