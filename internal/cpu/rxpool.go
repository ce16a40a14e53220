package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/packet"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// RxConfig parameterizes the receive-side core pool.
//
// The per-packet cost model is the mechanism behind the paper's "compute
// bottleneck" regime (Figure 2, 1x): each packet costs a fixed protocol
// overhead plus a memory stall that inflates with memory-controller load,
// so receive capacity shrinks exactly when the host is congested.
type RxConfig struct {
	// Cores processing received packets. DCTCP needs 4 cores to saturate
	// a 100 Gbps NIC in the uncongested case (§2.2), which pins the
	// per-packet cost budget.
	Cores int
	// BaseCost is fixed protocol processing per packet.
	BaseCost sim.Time
	// PerKBCost adds size-dependent (copy, checksum) cycles per KB.
	PerKBCost sim.Time
	// LLCStall replaces the DRAM read stall when the packet's lines are
	// still resident in the DDIO pool.
	LLCStall sim.Time
	// ReadFactor scales the DRAM read issued per packet on a DDIO miss
	// (or always, with DDIO disabled).
	ReadFactor float64
	// MLP is the memory-level parallelism of the copy loop: the packet's
	// size/64 cacheline misses overlap MLP at a time, so the CPU stall is
	// (size/64/MLP) × per-access latency. This is the coupling that makes
	// per-packet CPU cost — and hence receive capacity — degrade as the
	// memory controller loads up ("CPU cycles per memory access start to
	// increase", §2.2).
	MLP float64
	// WriteFactorMiss / WriteFactorHit scale the posted (non-blocking)
	// writes per packet. Calibrated so NetApp-T uses ≈2.1 bytes of memory
	// bandwidth per delivered byte with DDIO off (§4.2) and noticeably
	// less on DDIO hits.
	WriteFactorMiss float64
	WriteFactorHit  float64
}

// DefaultRxConfig returns the calibrated configuration.
func DefaultRxConfig() RxConfig {
	return RxConfig{
		Cores:     4,
		BaseCost:  250 * sim.Nanosecond,
		PerKBCost: 50 * sim.Nanosecond,
		LLCStall:  150 * sim.Nanosecond,
		// With DDIO off a packet costs IIO(1.0) + read(1.0) + residual
		// copy write-back(0.1) ≈ 2.1 bytes of memory bandwidth per
		// delivered byte, the ratio measured in §4.2 (most copy
		// destinations stay cache-resident).
		ReadFactor:      1.0,
		WriteFactorMiss: 0.1,
		WriteFactorHit:  0.45,
		MLP:             24,
	}
}

// RxWork is one received packet awaiting CPU processing, together with
// its DDIO bookkeeping (set by the IIO when DDIO is enabled).
type RxWork struct {
	Pkt      *packet.Packet
	Entry    cache.EntryID
	HasEntry bool
}

// RxPool is the set of receive cores. Packets are steered to a core by
// flow (accelerated receive flow steering), which preserves per-flow
// ordering — reordering across cores would fake duplicate ACKs.
type RxPool struct {
	e    *sim.Engine
	mc   *mem.Controller
	ddio *cache.DDIO // nil when DDIO is disabled
	cfg  RxConfig

	queues []ring.Queue[RxWork]
	busy   []bool
	cur    []rxJob // per-core in-flight packet (valid while busy)

	// stallDoneH fires when a core's memory stall ends; doneH when its
	// protocol processing ends. arg0 carries the core index — each core
	// runs one packet at a time, so cur needs no slot table.
	stallDoneH sim.HandlerID
	doneH      sim.HandlerID

	// pool, when set, receives packets after terminal delivery (the end
	// of the receive path); nil keeps them GC-managed.
	pool *packet.Pool

	deliver func(*packet.Packet)
	onDone  func(*packet.Packet)

	busyTime  sim.Time
	processed stats.Counter
	qlen      stats.TimeWeighted

	// tr records per-packet rx-core residence spans (nil when disabled).
	tr *telemetry.Tracer
}

// NewRxPool creates the pool. deliver is the next stage up the stack
// (the host's receive hook chain, then transport); onDone (optional)
// fires after processing and is used by the NIC to recycle descriptors.
func NewRxPool(e *sim.Engine, mc *mem.Controller, ddio *cache.DDIO, cfg RxConfig, deliver func(*packet.Packet)) *RxPool {
	if cfg.Cores <= 0 {
		panic("cpu: RxPool needs at least one core")
	}
	if deliver == nil {
		panic("cpu: RxPool needs a deliver function")
	}
	p := &RxPool{
		e:       e,
		mc:      mc,
		ddio:    ddio,
		cfg:     cfg,
		queues:  make([]ring.Queue[RxWork], cfg.Cores),
		busy:    make([]bool, cfg.Cores),
		cur:     make([]rxJob, cfg.Cores),
		deliver: deliver,
	}
	p.stallDoneH = e.Handler(p.stallDone)
	p.doneH = e.Handler(p.done)
	return p
}

// rxJob is the in-flight packet state of one core.
type rxJob struct {
	w     RxWork
	start sim.Time
	hit   bool
}

// SetPool directs terminally delivered packets back to pool (nil
// disables recycling).
func (p *RxPool) SetPool(pool *packet.Pool) { p.pool = pool }

// SetOnDone registers the descriptor-recycle callback.
func (p *RxPool) SetOnDone(fn func(*packet.Packet)) { p.onDone = fn }

// SetTracer attaches the packet-lifecycle tracer (nil disables).
func (p *RxPool) SetTracer(t *telemetry.Tracer) { p.tr = t }

// RegisterInstruments registers the rx pool's metrics under prefix.
func (p *RxPool) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/rx/processed", "pkts", "packets fully processed by the rx cores",
		func() float64 { return float64(p.processed.Total()) })
	reg.Gauge(prefix+"/rx/queued", "pkts", "packets queued for the rx cores",
		func() float64 { return float64(p.QueueLen()) })
	reg.Counter(prefix+"/rx/busy", "ns", "cumulative busy core-time",
		func() float64 { return float64(p.busyTime) })
}

// steer maps a flow to a core. Flows in the evaluation use distinct
// source ports, so this spreads them evenly (aRFS behaviour).
func (p *RxPool) steer(f packet.FlowID) int {
	return int(uint32(f.SrcPort)+uint32(f.DstPort)+uint32(f.Src)) % p.cfg.Cores
}

// Enqueue hands a DMA-completed packet to its core.
func (p *RxPool) Enqueue(w RxWork) {
	p.tr.PacketSpanBegin(telemetry.HopCPU, w.Pkt, p.e.Now())
	c := p.steer(w.Pkt.Flow)
	p.queues[c].Push(w)
	p.trackQueueLen()
	p.dispatch(c)
}

func (p *RxPool) trackQueueLen() {
	n := 0
	for i := range p.queues {
		n += p.queues[i].Len()
	}
	p.qlen.Set(p.e.Now(), float64(n))
}

func (p *RxPool) dispatch(c int) {
	if p.busy[c] || p.queues[c].Len() == 0 {
		return
	}
	w := p.queues[c].Pop()
	p.trackQueueLen()
	p.busy[c] = true
	p.process(c, w)
}

func (p *RxPool) process(c int, w RxWork) {
	size := w.Pkt.WireLen()

	hit := false
	if p.ddio != nil && w.HasEntry {
		hit = p.ddio.Consume(w.Entry, size)
	}
	p.cur[c] = rxJob{w: w, start: p.e.Now(), hit: hit}

	if hit {
		// Data still in LLC: short stall, no DRAM read.
		p.e.ScheduleAfter(p.cfg.LLCStall, p.stallDoneH, uint64(c), 0)
		return
	}
	// DDIO miss or DDIO disabled: the copy loop reads size/64 cachelines
	// from DRAM with limited parallelism. The read bandwidth is charged
	// to the controller; the CPU stalls for misses/MLP per-access
	// latencies at the controller's *current* latency — the path whose
	// cost inflates under host congestion, shrinking receive capacity.
	rb := int(float64(size) * p.cfg.ReadFactor)
	if rb <= 0 {
		rb = mem.CacheLine
	}
	p.mc.Submit(mem.Request{Size: rb, Class: mem.ClassNetCopy, Weight: 4})
	mlp := p.cfg.MLP
	if mlp <= 0 {
		mlp = 1
	}
	misses := float64(rb) / float64(mem.CacheLine)
	stall := sim.Time(float64(p.mc.EstimateLatency(mem.CacheLine)) * misses / mlp)
	p.e.ScheduleAfter(stall, p.stallDoneH, uint64(c), 0)
}

// stallDone fires when core c's memory stall ends: issue the posted copy
// writes and run protocol processing.
func (p *RxPool) stallDone(c64, _ uint64) {
	job := &p.cur[c64]
	size := job.w.Pkt.WireLen()
	// Posted writes: copy into application buffers. Non-blocking but
	// they consume memory bandwidth.
	wf := p.cfg.WriteFactorMiss
	if job.hit {
		wf = p.cfg.WriteFactorHit
	}
	if wb := int(float64(size) * wf); wb > 0 {
		p.mc.Submit(mem.Request{Size: wb, Class: mem.ClassNetCopy})
	}
	cost := p.cfg.BaseCost + sim.Time(float64(p.cfg.PerKBCost)*float64(size)/1024)
	p.e.ScheduleAfter(cost, p.doneH, c64, 0)
}

// done fires when core c finishes a packet: deliver it up the stack,
// recycle the descriptor, release the packet, and take the next one.
func (p *RxPool) done(c64, _ uint64) {
	c := int(c64)
	job := p.cur[c]
	p.cur[c] = rxJob{}
	p.busyTime += p.e.Now() - job.start
	p.processed.Inc()
	if p.tr != nil {
		cause := "dram-read"
		if job.hit {
			cause = "llc-hit"
		}
		p.tr.PacketSpanEnd(telemetry.HopCPU, job.w.Pkt, p.e.Now(), cause)
	}
	p.deliver(job.w.Pkt)
	if p.onDone != nil {
		p.onDone(job.w.Pkt)
	}
	// Terminal point of the receive path: nothing above retains the
	// packet (the transport reads it synchronously, and a receive hook
	// must not keep it after its call returns).
	p.pool.Put(job.w.Pkt)
	p.busy[c] = false
	p.dispatch(c)
}

// Processed returns packets fully processed so far.
func (p *RxPool) Processed() int64 { return p.processed.Total() }

// QueueLen returns packets currently queued for the cores.
func (p *RxPool) QueueLen() int {
	n := 0
	for i := range p.queues {
		n += p.queues[i].Len()
	}
	return n
}

// BusyTime returns cumulative busy core-time (utilization diagnostics).
func (p *RxPool) BusyTime() sim.Time { return p.busyTime }

// Cores returns the pool size.
func (p *RxPool) Cores() int { return p.cfg.Cores }

// Validate reports the first invalid parameter.
func (c RxConfig) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("cpu: RxPool needs at least one core, got %d", c.Cores)
	}
	if c.BaseCost < 0 || c.PerKBCost < 0 || c.LLCStall < 0 {
		return fmt.Errorf("cpu: negative rx cost (%v, %v, %v)", c.BaseCost, c.PerKBCost, c.LLCStall)
	}
	if c.ReadFactor < 0 || c.WriteFactorMiss < 0 || c.WriteFactorHit < 0 {
		return fmt.Errorf("cpu: negative rx memory factor")
	}
	if c.MLP < 0 {
		return fmt.Errorf("cpu: negative MLP %v", c.MLP)
	}
	return nil
}
