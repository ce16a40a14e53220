package fluid

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/sweep"
)

// passRun is one network of a participant-count comparison, with its own
// scripted seams and a log of every hook and SetBackground call.
type passRun struct {
	net *Network
	log []hookCall
}

// newPassRun builds an empty network whose flow pass runs on workers
// participants over chunks of chunk flows, with logging hooks: demote
// reports a rate that depends on the flow and on how many calls came
// first, so a reordered hook shows up in every later rate.
func newPassRun(cfg Config, workers, chunk int) *passRun {
	r := &passRun{net: New(cfg)}
	r.net.workers, r.net.chunk = workers, chunk
	r.net.SetPromoteHooks(func(i int, rate sim.Rate) {
		r.log = append(r.log, hookCall{kind: "promote", id: i, rate: rate})
	}, func(i int) sim.Rate {
		rate := sim.Gbps(0.5 + float64(i%7) + float64(len(r.log)%3))
		r.log = append(r.log, hookCall{kind: "demote", id: i, rate: rate})
		return rate
	})
	return r
}

func (r *passRun) bindSeam(res ResourceID, seed uint64) {
	r.net.BindSeam(res, &scriptSeam{state: seed, log: &r.log, id: int(res)})
}

func (r *passRun) snapshot() []byte {
	var enc snapshot.Encoder
	r.net.Snapshot(&enc)
	return enc.Bytes()
}

// diff reports how r differs from want after the same script, or ""
// when snapshot bytes, goodput bits, next-tick demand and the call log
// all match and r's kept demand is the one its flows add up to.
// withSnapshot false skips the snapshot bytes.
func (r *passRun) diff(want *passRun, withSnapshot bool) string {
	switch {
	case withSnapshot && !bytes.Equal(r.snapshot(), want.snapshot()):
		return "snapshot bytes differ"
	case math.Float64bits(r.net.DeliveredBytes()) != math.Float64bits(want.net.DeliveredBytes()):
		return fmt.Sprintf("delivered %v, want %v", r.net.DeliveredBytes(), want.net.DeliveredBytes())
	case !slices.Equal(r.net.demand, want.net.demand):
		return "next-tick demand differs"
	case !slices.Equal(r.net.demand, flowDemand(r.net)):
		return "kept demand differs from the flows' sum"
	case !slices.Equal(r.log, want.log):
		return fmt.Sprintf("call log differs: %d calls, want %d", len(r.log), len(want.log))
	}
	return ""
}

// flowDemand recomputes every resource's demand from the flows: the sum
// of units(rate) over path[:npath] of each demoted flow, a hop counted
// as often as the path repeats it.
func flowDemand(n *Network) []int64 {
	demand := make([]int64, len(n.res))
	for i := range n.flows {
		f := &n.flows[i]
		if f.state&stPromoted != 0 {
			continue
		}
		for _, r := range f.path[:f.npath] {
			demand[r] += units(f.rate, n.scale)
		}
	}
	return demand
}

// passScenario is the invariance script: six resources of 10–20 Gbps,
// three tapped by scripted seams, and flows of which every fifth is
// promotable and crosses only the two resources that fault windows hit.
// Those two carry nothing else, so a fault (or their own overload)
// promotes the flows crossing them, and once those flows have left the
// fluid demand the resources calm and the flows demote.
type passScenario struct {
	flows int
	rs    []ResourceID
}

func (s *passScenario) build(r *passRun) {
	s.rs = s.rs[:0]
	for i := 0; i < 6; i++ {
		s.rs = append(s.rs, r.net.AddResource(sim.Gbps(10+float64(5*(i%3))), 1<<20, 80*1024))
	}
	for i, res := range []ResourceID{s.rs[0], s.rs[2], s.rs[5]} {
		r.bindSeam(res, uint64(31+i))
	}
	s.addFlows(r, s.flows)
}

func (s *passScenario) addFlows(r *passRun, count int) {
	rs := s.rs
	busy := []ResourceID{rs[0], rs[2], rs[4], rs[5]}
	twins := [][]ResourceID{{rs[1]}, {rs[1], rs[3]}, {rs[3]}}
	for k := 0; k < count; k++ {
		i := r.net.Flows()
		if i%5 == 0 {
			r.net.SetPromotable(r.net.AddFlow(twins[i%3]...), true)
			continue
		}
		path := []ResourceID{busy[i%4], busy[(i+1)%4], busy[(i+3)%4], busy[i%4]}
		r.net.AddFlow(path[:1+i%maxHops]...)
	}
}

// step applies the script for one tick, then ticks.
func (s *passScenario) step(r *passRun, tick int) {
	switch tick {
	case 40, 150:
		r.net.SetFault(s.rs[1], true)
		r.net.SetFault(s.rs[3], true)
	case 70, 170:
		r.net.SetFault(s.rs[1], false)
		r.net.SetFault(s.rs[3], false)
	case 60, 120:
		s.addFlows(r, s.flows/4)
	}
	r.net.Tick(0)
}

// TestFluidPassWorkerInvariance: the flow pass gives the same result at
// any participant count and chunk size. Networks at 1, 2, 3 and 8
// participants run the same script (scripted seams, fault windows,
// promote → demote hooks, AddFlow after ticking) and, after every tick,
// encode the same snapshot bytes, integrate the same goodput, hold the
// same next-tick demand and have made the same calls in the same order
// as a serial network at the production chunk size; each one's kept
// demand is the sum its flows give.
func TestFluidPassWorkerInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.PromoteTicks, cfg.DemoteTicks = 3, 20
	rows := []struct {
		name         string
		flows, chunk int
		snapEvery    int // compare snapshot bytes every this many ticks
	}{
		{"small chunks", 600, 16, 1},
		{"production chunks", 8*chunkFlows + 100, chunkFlows, 25},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.chunk == chunkFlows && testing.Short() {
				t.Skip("33k-flow row in -short mode")
			}
			const ticks = 220
			scen := &passScenario{flows: row.flows}
			base := newPassRun(cfg, 1, chunkFlows)
			scen.build(base)
			var runs []*passRun
			for _, workers := range []int{1, 2, 3, 8} {
				r := newPassRun(cfg, workers, row.chunk)
				scen.build(r)
				runs = append(runs, r)
			}
			for tick := 0; tick < ticks; tick++ {
				scen.step(base, tick)
				for _, r := range runs {
					scen.step(r, tick)
					if d := r.diff(base, tick%row.snapEvery == 0); d != "" {
						t.Fatalf("%d participants, tick %d: %s", r.net.workers, tick, d)
					}
				}
			}
			if n := base.net; n.Promotions() == 0 || n.Demotions() == 0 {
				t.Fatalf("%d promotions / %d demotions, want both", n.Promotions(), n.Demotions())
			}
		})
	}
}

// TestFluidPassInSaturatedSweep: a 4-participant network ticking inside
// a sweep.Map cell while every pool worker is busy in the other cells
// finds no helper, runs its pass on the caller alone, and still matches
// a serial network tick for tick. A pass that waited for a helper would
// stall here.
func TestFluidPassInSaturatedSweep(t *testing.T) {
	cfg := testConfig()
	cfg.PromoteTicks, cfg.DemoteTicks = 3, 20
	cells := sweep.Workers() + 1
	release := make(chan struct{})
	done := make(chan string, 1)
	go func() {
		out := sweep.Map(cells, cells, func(i int) string {
			if i != 0 {
				<-release
				return ""
			}
			defer close(release)
			scen := &passScenario{flows: 600}
			base, r := newPassRun(cfg, 1, chunkFlows), newPassRun(cfg, 4, 16)
			scen.build(base)
			scen.build(r)
			for tick := 0; tick < 220; tick++ {
				scen.step(base, tick)
				scen.step(r, tick)
				if d := r.diff(base, true); d != "" {
					return fmt.Sprintf("tick %d: %s", tick, d)
				}
			}
			return ""
		})
		done <- out[0]
	}()
	select {
	case d := <-done:
		if d != "" {
			t.Fatal(d)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("fluid ticks inside a saturated sweep cell stalled")
	}
}

// TestFluidSaturatedRates: flows on a 1e12 Gbps resource never see
// congestion, so their rates run into the cap of unitCap rate units
// (the largest rate a flow can add to an integer sum). Tick keeps
// running, no flow exceeds the cap, and no demand goes negative, even
// with every flow crossing the resource on all maxHops hops.
func TestFluidSaturatedRates(t *testing.T) {
	cfg := testConfig()
	cfg.InitRate = sim.Gbps(1e6)
	net := New(cfg)
	r := net.AddResource(sim.Gbps(1e12), 1<<20, 80*1024)
	for i := 0; i < 64; i++ {
		net.AddFlow(r, r, r, r)
	}
	run(net, 200)
	for i := 0; i < net.Flows(); i++ {
		if got := float64(net.FlowRate(i)); got != net.maxRate {
			t.Fatalf("flow %d at %v B/s, want the cap %v", i, got, net.maxRate)
		}
	}
	if want := int64(64 * maxHops * unitCap); net.demand[r] != want {
		t.Fatalf("demand %d units, want %d", net.demand[r], want)
	}
	if net.DeliveredBytes() <= 0 {
		t.Fatalf("delivered %v", net.DeliveredBytes())
	}
}

// FuzzFluidPass drives the same byte script — AddFlow, SetFault,
// SetPromotable and Tick — into a serial network at the production chunk
// size and a 4-participant network over 3-flow chunks, and fails on the
// first tick after which the two differ in snapshot bytes, goodput,
// next-tick demand or the call log, or the kept demand differs from the
// sum the flows give.
func FuzzFluidPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := testConfig()
		cfg.PromoteTicks, cfg.DemoteTicks = 2, 4
		a, b := newPassRun(cfg, 1, chunkFlows), newPassRun(cfg, 4, 3)
		var rs []ResourceID
		for _, r := range []*passRun{a, b} {
			rs = rs[:0]
			for i, gbps := range []float64{1, 2, 5, 10, 25} {
				rs = append(rs, r.net.AddResource(sim.Gbps(gbps), 256*1024, 80*1024))
				if i%3 == 0 {
					r.bindSeam(rs[i], uint64(7+i))
				}
			}
		}
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			x := int(script[0])
			script = script[1:]
			return x
		}
		ticks := 0
		for len(script) > 0 && ticks < 128 {
			switch op := next() % 5; {
			case op <= 1 && a.net.Flows() < 96:
				path := make([]ResourceID, 1+next()%maxHops)
				for k := range path {
					path[k] = rs[next()%len(rs)]
				}
				a.net.AddFlow(path...)
				b.net.AddFlow(path...)
			case op == 2:
				res, on := rs[next()%len(rs)], next()%2 == 1
				a.net.SetFault(res, on)
				b.net.SetFault(res, on)
			case op == 3 && a.net.Flows() > 0:
				i, on := next()%a.net.Flows(), next()%2 == 1
				a.net.SetPromotable(i, on)
				b.net.SetPromotable(i, on)
			case op == 4:
				a.net.Tick(0)
				b.net.Tick(0)
				ticks++
				if d := b.diff(a, true); d != "" {
					t.Fatalf("tick %d: %s", ticks, d)
				}
			}
		}
	})
}
