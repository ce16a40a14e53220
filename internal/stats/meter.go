package stats

import "repro/internal/sim"

// Meter accumulates byte counts over simulated time and reports average
// rates over arbitrary windows. Experiments use one meter per traffic
// class (network throughput, per-class memory bandwidth).
type Meter struct {
	total int64
	marks []mark // measurement window marks
}

type mark struct {
	at    sim.Time
	total int64
}

// Add records n bytes at the current instant.
func (m *Meter) Add(n int64) { m.total += n }

// Total returns all bytes recorded so far.
func (m *Meter) Total() int64 { return m.total }

// Mark snapshots the counter at time t; RateSince measures between marks.
func (m *Meter) Mark(t sim.Time) {
	m.marks = append(m.marks, mark{at: t, total: m.total})
}

// RateSinceMark returns the average rate between the most recent mark and
// time now. With no mark it measures from time zero.
func (m *Meter) RateSinceMark(now sim.Time) sim.Rate {
	var base mark
	if len(m.marks) > 0 {
		base = m.marks[len(m.marks)-1]
	}
	dt := now - base.at
	if dt <= 0 {
		return 0
	}
	return sim.Rate(float64(m.total-base.total) / dt.Seconds())
}

// BytesSinceMark returns bytes accumulated since the most recent mark.
func (m *Meter) BytesSinceMark() int64 {
	if len(m.marks) == 0 {
		return m.total
	}
	return m.total - m.marks[len(m.marks)-1].total
}

// Counter is a labelled event counter with Mark support, used for packet
// and drop accounting where rates are reported as ratios over a window.
//
// The accumulation API mirrors Meter's: Add records a quantity (bytes,
// lines), Inc records one event. Mark differs deliberately — Meter.Mark
// takes a timestamp because rate computation needs one; Counter windows
// are pure differences, so Counter.Mark takes none.
type Counter struct {
	total int64
	mark  int64
}

// Inc records one event.
func (c *Counter) Inc() { c.total++ }

// Add records n events (or n units — lines, bytes — for quantity
// counters), mirroring Meter.Add.
func (c *Counter) Add(n int64) { c.total += n }

// Total returns the all-time count.
func (c *Counter) Total() int64 { return c.total }

// Mark snapshots the counter for windowed measurement.
func (c *Counter) Mark() { c.mark = c.total }

// SinceMark returns the count accumulated since the last Mark.
func (c *Counter) SinceMark() int64 { return c.total - c.mark }

// TimeWeighted integrates a piecewise-constant value over time, yielding
// time-averaged occupancies (exactly what the IIO ROCC register does: a
// cumulative occupancy count incremented at the IIO clock).
type TimeWeighted struct {
	val      float64
	last     sim.Time
	integral float64 // sum of val*dt, in value-nanoseconds
}

// Set updates the current value at time t, accumulating the previous value
// over the elapsed interval.
func (tw *TimeWeighted) Set(t sim.Time, v float64) {
	if t < tw.last {
		panic("stats: TimeWeighted time went backwards")
	}
	tw.integral += float64(tw.val * float64(t-tw.last))
	tw.last = t
	tw.val = v
}

// Value returns the current instantaneous value.
func (tw *TimeWeighted) Value() float64 { return tw.val }

// Integral returns the integral of the value up to time t
// (in value-nanoseconds).
func (tw *TimeWeighted) Integral(t sim.Time) float64 {
	if t < tw.last {
		panic("stats: TimeWeighted time went backwards")
	}
	return tw.integral + float64(tw.val*float64(t-tw.last))
}
