package mem

import (
	"math"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// eagerController is the controller as it was before completions without
// a callback left the event queue: every completion is an engine event,
// and the rate trackers call math.Exp on every decay. FuzzLazyCompletions
// holds Controller to it.
type eagerController struct {
	e   *sim.Engine
	cfg Config

	lastDep  sim.Time
	inFlight int

	meters  [NumClasses]stats.Meter
	recent  [NumClasses]eagerTracker
	backlog stats.TimeWeighted

	completeH sim.HandlerID
	comps     sim.Slots[completion]

	Submitted int64
}

func newEagerController(e *sim.Engine, cfg Config) *eagerController {
	c := &eagerController{e: e, cfg: cfg}
	c.completeH = e.Handler(c.complete)
	return c
}

func (c *eagerController) complete(slot, _ uint64) {
	comp := c.comps.Take(slot)
	now := c.e.Now()
	c.inFlight -= comp.weight
	c.meters[comp.class].Add(int64(comp.size))
	c.recent[comp.class].add(now, float64(comp.size))
	if comp.cb.Set() {
		c.e.Dispatch(comp.cb.ID, comp.cb.Arg0, uint64(now-comp.submitted))
	}
}

func (c *eagerController) Submit(req Request) {
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

type eagerTracker struct {
	last sim.Time
	rate float64
}

func (rt *eagerTracker) add(now sim.Time, bytes float64) {
	rt.decay(now)
	rt.rate += bytes / rateTrackerTau.Seconds()
	rt.last = now
}

func (rt *eagerTracker) decay(now sim.Time) {
	if dt := now - rt.last; dt > 0 {
		rt.rate *= math.Exp(-float64(dt) / float64(rateTrackerTau))
		rt.last = now
	}
}

func (c *eagerController) RecentRate(class Class) sim.Rate {
	rt := &c.recent[class]
	rt.decay(c.e.Now())
	return sim.Rate(rt.rate)
}

func (c *eagerController) loadLatency() sim.Time {
	if c.cfg.LoadLatencyNs == 0 || c.inFlight == 0 {
		return 0
	}
	n := float64(c.inFlight)
	return sim.Time(c.cfg.LoadLatencyNs * n * math.Sqrt(n))
}

func (c *eagerController) QueueDelay() sim.Time {
	d := c.lastDep - c.e.Now()
	if d < 0 {
		return 0
	}
	return d
}

func (c *eagerController) BacklogBytes() float64 {
	return c.cfg.EffectiveBW.BytesIn(c.QueueDelay())
}

func (c *eagerController) InFlight() int { return c.inFlight }

func (c *eagerController) EstimateLatency(size int) sim.Time {
	return c.QueueDelay() + c.cfg.EffectiveBW.TimeFor(size) + c.cfg.BaseLatency + c.loadLatency()
}

func (c *eagerController) MarkAll() {
	for i := range c.meters {
		c.meters[i].Mark(c.e.Now())
	}
}

func (c *eagerController) RateOf(class Class) sim.Rate {
	return c.meters[class].RateSinceMark(c.e.Now())
}

func (c *eagerController) UtilizationOf(class Class) float64 {
	return float64(c.RateOf(class)) / float64(c.cfg.TheoreticalBW)
}

func (c *eagerController) TotalUtilization() float64 {
	var u float64
	for cl := Class(0); cl < NumClasses; cl++ {
		u += c.UtilizationOf(cl)
	}
	return u
}

func (c *eagerController) BytesOf(class Class) int64 {
	return c.meters[class].BytesSinceMark()
}

func (c *eagerController) RegisterInstruments(reg *telemetry.Registry, prefix string) {
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

func (c *eagerController) Snapshot(e *snapshot.Encoder) {
	e.I64(int64(c.lastDep))
	e.Int(c.inFlight)
	e.I64(c.Submitted)
	for i := range c.meters {
		c.meters[i].Snapshot(e)
	}
	for i := range c.recent {
		e.I64(int64(c.recent[i].last))
		e.F64(c.recent[i].rate)
	}
	c.backlog.Snapshot(e)
}
