package mem

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// memController is what a script drives: Controller or the eager
// reference.
type memController interface {
	Submit(Request)
	RecentRate(Class) sim.Rate
	InFlight() int
	EstimateLatency(int) sim.Time
	QueueDelay() sim.Time
	BacklogBytes() float64
	MarkAll()
	RateOf(Class) sim.Rate
	UtilizationOf(Class) float64
	TotalUtilization() float64
	BytesOf(Class) int64
	Snapshot(*snapshot.Encoder)
	RegisterInstruments(*telemetry.Registry, string)
}

// record is one line of a script's log: a script event ('e'), an
// admission ('a', a the request) or a completion ('c', a the request, b
// the latency argument), or a reader's result ('r', a the reader, b its
// value's bits).
type record struct {
	kind byte
	at   sim.Time
	a, b uint64
}

// fuzzConfigs are the controllers a script may pick. Small latencies and
// service times put completions on the same instants as script events;
// the load-latency term makes completions overtake earlier ones.
var fuzzConfigs = []Config{
	{TheoreticalBW: sim.GBps(80), EffectiveBW: sim.GBps(64), BaseLatency: 3, WriteQueueBytes: 256, WriteLoadFactor: 1.5, LoadLatencyNs: 0.3},
	{TheoreticalBW: sim.GBps(64), EffectiveBW: sim.GBps(64), BaseLatency: 0, WriteQueueBytes: 64},
	{TheoreticalBW: sim.GBps(50), EffectiveBW: sim.GBps(40), BaseLatency: 1, WriteQueueBytes: 1024, WriteLoadFactor: 2, LoadLatencyNs: 2.5},
	DefaultConfig(),
}

var fuzzEfficiencies = [4]float64{0, 1, 0.5, 0.3}

// memScript runs a fuzz script on one controller. The script is a stream
// of 4-byte ops (opcode, a, b, c) consumed in order: one at a time by
// the driver between runs, and in batches by every script event and
// callback as it runs; opcode bit 3 ends a batch. Opcode bits 0-2 pick
//
//	0-3  Submit, with an AdmitCB if bit 0 is set and a CompleteCB if
//	     bit 1 is; a picks the size, b the weight, c the class and
//	     efficiency
//	4    a reader (a picks which, b its argument)
//	5    a script event a%32 ns from now, or a·8 ns if b is odd
//	6    the driver: RunUntil a%32 ns from now (0: the same instant);
//	     an event under Run: Stop; otherwise a reader
//	7    the driver: Run; otherwise a reader
//
// Stop is issued only under Run: under RunUntil it leaves events queued
// before the clock, and the next run panics on either controller.
type memScript struct {
	e     *sim.Engine
	c     memController
	reg   *telemetry.Registry
	ops   []byte
	inRun bool
	reqs  uint64

	eventH, admitH, doneH sim.HandlerID
	log                   []record
}

func newMemScript(cfg Config, ops []byte, eager bool) *memScript {
	s := &memScript{e: sim.NewEngine(1), reg: telemetry.NewRegistry(), ops: ops}
	if eager {
		s.c = newEagerController(s.e, cfg)
	} else {
		s.c = NewController(s.e, cfg)
	}
	s.c.RegisterInstruments(s.reg, "m")
	s.eventH = s.e.Handler(func(_, _ uint64) {
		s.note('e', 0, 0)
		s.run()
	})
	s.admitH = s.e.Handler(func(req, _ uint64) {
		s.note('a', req, 0)
		s.run()
	})
	s.doneH = s.e.Handler(func(req, lat uint64) {
		s.note('c', req, lat)
		s.run()
	})
	return s
}

func (s *memScript) note(kind byte, a, b uint64) {
	s.log = append(s.log, record{kind, s.e.Now(), a, b})
}

func (s *memScript) next() (op, a, b, c byte, ok bool) {
	if len(s.ops) < 4 {
		return 0, 0, 0, 0, false
	}
	op, a, b, c = s.ops[0], s.ops[1], s.ops[2], s.ops[3]
	s.ops = s.ops[4:]
	return op, a, b, c, true
}

// run takes one batch of ops inside an event or callback.
func (s *memScript) run() {
	for {
		op, a, b, c, ok := s.next()
		if !ok {
			return
		}
		switch op & 7 {
		case 6:
			if s.inRun {
				s.e.Stop()
			} else {
				s.read(a, b)
			}
		case 7:
			s.read(a, b)
		default:
			s.do(op, a, b, c)
		}
		if op&8 != 0 {
			return
		}
	}
}

// step takes one op between runs; it reports false once none is left.
func (s *memScript) step() bool {
	op, a, b, c, ok := s.next()
	if !ok {
		return false
	}
	switch op & 7 {
	case 6:
		s.e.RunUntil(s.e.Now() + sim.Time(a%32))
	case 7:
		s.inRun = true
		s.e.Run()
		s.inRun = false
	default:
		s.do(op, a, b, c)
	}
	return true
}

func (s *memScript) do(op, a, b, c byte) {
	switch op & 7 {
	case 4:
		s.read(a, b)
	case 5:
		d := sim.Time(a % 32)
		if b&1 != 0 {
			d = sim.Time(a) * 8
		}
		s.e.ScheduleAfter(d, s.eventH, 0, 0)
	default:
		req := Request{
			Size:       1 + int(a)*int(a)/16,
			Weight:     int(b % 16),
			Class:      Class(c % byte(NumClasses)),
			Efficiency: fuzzEfficiencies[c>>3&3],
		}
		if op&1 != 0 {
			req.AdmitCB = sim.Callback{ID: s.admitH, Arg0: s.reqs}
		}
		if op&2 != 0 {
			req.CompleteCB = sim.Callback{ID: s.doneH, Arg0: s.reqs}
		}
		s.reqs++
		s.c.Submit(req)
	}
}

// read logs one reader's result; MarkAll, Snapshot and the instruments
// count as readers, and so does the engine's NextEventAt, which must see
// pending completions as if they were queued events.
func (s *memScript) read(which, arg byte) {
	cl := Class(arg % byte(NumClasses))
	f := func(v float64) uint64 { return math.Float64bits(v) }
	var v uint64
	switch which % 13 {
	case 0:
		v = f(float64(s.c.RecentRate(cl)))
	case 1:
		v = uint64(s.c.InFlight())
	case 2:
		v = uint64(s.c.EstimateLatency(1 + int(arg)*16))
	case 3:
		v = uint64(s.c.QueueDelay())
	case 4:
		v = f(s.c.BacklogBytes())
	case 5:
		v = f(float64(s.c.RateOf(cl)))
	case 6:
		v = f(s.c.UtilizationOf(cl))
	case 7:
		v = f(s.c.TotalUtilization())
	case 8:
		v = uint64(s.c.BytesOf(cl))
	case 9:
		s.c.MarkAll()
	case 10:
		var enc snapshot.Encoder
		s.c.Snapshot(&enc)
		h := fnv.New64a()
		h.Write(enc.Bytes())
		v = h.Sum64()
	case 11:
		s.reg.Each(func(i *telemetry.Instrument) {
			s.note('r', uint64(which), f(i.Value()))
		})
	case 12:
		at, ok := s.e.NextEventAt()
		if ok {
			v = uint64(at) + 1
		}
	}
	s.note('r', uint64(which%13), v)
}

// engineSeq decodes the sequence counter from the engine's snapshot.
func engineSeq(e *sim.Engine) uint64 {
	var enc snapshot.Encoder
	e.Snapshot(&enc)
	return binary.LittleEndian.Uint64(enc.Bytes()[8:]) // after now
}

// compareScripts fails the test unless the two runs agree: logs, clock,
// sequence counter and controller snapshot bytes.
func compareScripts(t *testing.T, when string, got, ref *memScript) {
	t.Helper()
	if !slices.Equal(got.log, ref.log) {
		n := 0
		for n < len(got.log) && n < len(ref.log) && got.log[n] == ref.log[n] {
			n++
		}
		t.Fatalf("%s: logs differ from record %d:\n got %v\nwant %v",
			when, n, got.log[n:min(len(got.log), n+4)], ref.log[n:min(len(ref.log), n+4)])
	}
	if got.e.Now() != ref.e.Now() {
		t.Fatalf("%s: clock %v, reference %v", when, got.e.Now(), ref.e.Now())
	}
	if g, r := engineSeq(got.e), engineSeq(ref.e); g != r {
		t.Fatalf("%s: seq %d, reference %d", when, g, r)
	}
	var a, b snapshot.Encoder
	got.c.Snapshot(&a)
	ref.c.Snapshot(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: controller snapshot differs from the reference", when)
	}
}

// FuzzLazyCompletions runs one script on Controller and on the eager
// reference, which queues an event for every completion. After every
// driver op, and after a final Run, the dispatch logs (time, request and
// latency argument of every callback), every reader's result, the clock,
// the sequence counter and the snapshot bytes must match.
func FuzzLazyCompletions(f *testing.F) {
	f.Fuzz(checkLazyScript)
}

func checkLazyScript(t *testing.T, data []byte) {
	if len(data) == 0 || len(data) > 2048 {
		return
	}
	cfg := fuzzConfigs[int(data[0])%len(fuzzConfigs)]
	ref := newMemScript(cfg, data[1:], true)
	got := newMemScript(cfg, data[1:], false)
	for i := 0; ; i++ {
		rok, gok := ref.step(), got.step()
		if rok != gok {
			t.Fatalf("op %d: scripts consumed different ops", i)
		}
		if !rok {
			break
		}
		compareScripts(t, "after driver op", got, ref)
	}
	ref.inRun, got.inRun = true, true
	ref.e.Run()
	got.e.Run()
	compareScripts(t, "after the final Run", got, ref)
	if c := got.c.(*Controller); c.n != 0 {
		t.Fatalf("Run returned with %d completions pending", c.n)
	}
}

// TestControllerZeroAllocSteadyState guards Submit → retire → complete:
// once the ring has grown to its standing population, a request cycle
// allocates nothing, with or without a completion callback.
func TestControllerZeroAllocSteadyState(t *testing.T) {
	for name, every := range map[string]int{"no-callbacks": 0, "mixed": 3} {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine(1)
			c := NewController(e, DefaultConfig())
			done := sim.Callback{ID: e.Handler(func(_, _ uint64) {})}
			i := 0
			var tick sim.HandlerID
			tick = e.Handler(func(_, _ uint64) {
				i++
				req := Request{Size: 64 + i%5*256, Class: Class(i % int(NumClasses)), Weight: i % 3}
				if every > 0 && i%every == 0 {
					req.CompleteCB = done
				}
				c.Submit(req)
				c.Submit(Request{Size: 1500, Class: ClassNetCopy, Weight: 4})
				e.ScheduleAfter(25, tick, 0, 0)
			})
			e.ScheduleAfter(0, tick, 0, 0)
			for k := 0; k < 20000; k++ {
				e.Step()
			}
			if c.n == 0 {
				t.Fatal("no completion pending in the ring; the guard measures nothing")
			}
			if allocs := testing.AllocsPerRun(2000, func() { e.Step() }); allocs != 0 {
				t.Fatalf("warm request cycle allocates %.2f per event; want 0", allocs)
			}
		})
	}
}
