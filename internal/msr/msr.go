// Package msr models the model-specific-register interface through which
// hostCC observes the host (§4.1). Hardware counters — IIO occupancy
// (ROCC) and IIO insertions (RINS) — are exposed as cumulative registers;
// reading one costs ~600 ns, reading the TSC costs ~2 ns. Crucially, MSR
// reads execute on the processor interconnect, outside the NIC-to-memory
// datapath, so their latency is independent of host congestion — the
// property Figure 7 demonstrates and the reason IIO occupancy is usable
// as a congestion signal at all.
package msr

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrReadFailed is reported by Read when the register access itself fails
// (on real hardware: a GP fault from rdmsr, a hung PECI transaction, or an
// uncore counter that stopped responding). Callers must distinguish a
// failed read from a merely slow one: a slow read still carries a valid
// counter snapshot, a failed read carries nothing.
var ErrReadFailed = errors.New("msr: register read failed")

// Address identifies a model-specific register.
type Address uint32

// Registers modeled in this reproduction.
const (
	// IIOOccupancy (ROCC) accumulates IIO buffer occupancy once per IIO
	// clock tick; average occupancy over [t1,t2] is
	// (ROCC(t2)-ROCC(t1)) / ((t2-t1) * F_IIO).
	IIOOccupancy Address = 0x0C00
	// IIOInsertions (RINS) counts cachelines inserted into the IIO; the
	// insertion rate times the cacheline size is PCIe bandwidth.
	IIOInsertions Address = 0x0C01
)

// FIIOHz is the IIO clock frequency (500 MHz on the paper's servers).
const FIIOHz = 500e6

// TickNanos is the IIO clock period in nanoseconds.
const TickNanos = 2

// Latency model constants for register access (§4.1).
const (
	readLatencyBase = 450 * sim.Nanosecond
	readLatencyMean = 130 * sim.Nanosecond // exponential tail above base
	readLatencyMax  = 1200 * sim.Nanosecond
)

// ReadFault perturbs one register read (fault injection). The zero value
// is a healthy read.
type ReadFault struct {
	// ExtraLatency is added to the modeled read latency (interconnect
	// contention spike, SMI storm).
	ExtraLatency sim.Time
	// Stale makes the read return the value of the previous successful
	// read of the same register instead of a fresh snapshot (a counter
	// that stopped counting, or a cached PECI response).
	Stale bool
	// Fail makes the read complete with ErrReadFailed and no value.
	Fail bool
}

// File is the register file: a set of addressed counters with modeled
// access latency.
type File struct {
	e       *sim.Engine
	readers map[Address]func() uint64

	// readDoneH retires a read; reads parks each in-flight read's state
	// under the slot key the event carries.
	readDoneH sim.HandlerID
	reads     sim.Slots[pendingRead]

	// readFault, when set, is consulted on every Read (fault injection;
	// see internal/faults). It must be deterministic given engine state.
	readFault func(Address) ReadFault
	lastRead  map[Address]uint64 // last successfully returned values

	// FailedReads counts reads that completed with ErrReadFailed.
	FailedReads int64
	// StaleReads counts reads that returned a stale snapshot.
	StaleReads int64
}

// pendingRead is one in-flight read.
type pendingRead struct {
	addr  Address
	fault ReadFault
	lat   sim.Time
	done  func(val uint64, lat sim.Time, err error)
}

// NewFile returns an empty register file.
func NewFile(e *sim.Engine) *File {
	f := &File{
		e:        e,
		readers:  make(map[Address]func() uint64),
		lastRead: make(map[Address]uint64),
	}
	f.readDoneH = e.Handler(f.readDone)
	return f
}

// SetReadFault installs the read-fault hook (nil removes it). The hook is
// invoked once per Read, before the read is scheduled.
func (f *File) SetReadFault(fn func(Address) ReadFault) { f.readFault = fn }

// RegisterReader attaches a counter provider to an address.
func (f *File) RegisterReader(addr Address, fn func() uint64) {
	if _, dup := f.readers[addr]; dup {
		panic(fmt.Sprintf("msr: duplicate reader for %#x", uint32(addr)))
	}
	f.readers[addr] = fn
}

// readLatency draws one MSR read latency. The distribution is a base plus
// an exponential tail, matching the ~0.45–1.2 µs range of Figure 7, and
// does not depend on any datapath state.
func (f *File) readLatency() sim.Time {
	lat := readLatencyBase + sim.Time(f.e.Rand().ExpFloat64()*float64(readLatencyMean))
	if lat > readLatencyMax {
		lat = readLatencyMax
	}
	return lat
}

// Read samples the register and invokes done with the value and the read's
// modeled latency once the read retires. The value is captured at retire
// time (the counter keeps counting while the read executes). err is nil
// for a healthy read and ErrReadFailed when the access itself failed — a
// failed read carries no value and callers must not fold val into any
// signal state.
func (f *File) Read(addr Address, done func(val uint64, lat sim.Time, err error)) {
	if _, ok := f.readers[addr]; !ok {
		panic(fmt.Sprintf("msr: read of unregistered register %#x", uint32(addr)))
	}
	var fault ReadFault
	if f.readFault != nil {
		fault = f.readFault(addr)
	}
	lat := f.readLatency() + fault.ExtraLatency
	slot := f.reads.Put(pendingRead{addr: addr, fault: fault, lat: lat, done: done})
	f.e.ScheduleAfter(lat, f.readDoneH, slot, 0)
}

// readDone retires the read parked at slot.
func (f *File) readDone(slot, _ uint64) {
	r := f.reads.Take(slot)
	switch {
	case r.fault.Fail:
		f.FailedReads++
		r.done(0, r.lat, ErrReadFailed)
	case r.fault.Stale:
		f.StaleReads++
		r.done(f.lastRead[r.addr], r.lat, nil)
	default:
		v := f.readers[r.addr]()
		f.lastRead[r.addr] = v
		r.done(v, r.lat, nil)
	}
}

// ReadTSC returns the current timestamp counter as simulated time. The
// ~2 ns cost is negligible and not modeled as an event; callers sampling
// at sub-µs granularity account for it via the MSR read latency instead.
func (f *File) ReadTSC() sim.Time { return f.e.Now() }

// Has reports whether a reader is registered at addr.
func (f *File) Has(addr Address) bool {
	_, ok := f.readers[addr]
	return ok
}
