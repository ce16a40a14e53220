// Package stats provides the measurement primitives shared by the
// simulator and the hostCC module: exponentially weighted moving
// averages (the paper's congestion-signal filters), log-bucketed latency
// histograms (tail latency figures), windowed rate meters (throughput and
// memory-bandwidth figures), and time-series recorders (the microscopic
// behaviour figures 8, 18 and 19).
package stats

import "math"

// EWMA is an exponentially weighted moving average
//
//	v <- (1-w)*v + w*sample
//
// hostCC uses w = 1/8 for IIO occupancy and w = 1/256 for PCIe bandwidth
// (§4.1); DCTCP uses g = 1/16 for its fraction-marked estimate.
type EWMA struct {
	w       float64
	v       float64
	started bool
}

// NewEWMA returns an EWMA with weight w in (0, 1].
func NewEWMA(w float64) *EWMA {
	if w <= 0 || w > 1 {
		panic("stats: EWMA weight must be in (0,1]")
	}
	return &EWMA{w: w}
}

// Update folds a sample into the average. The first sample initializes the
// average directly, matching how the kernel module seeds its filters.
func (e *EWMA) Update(sample float64) {
	if !e.started {
		e.v = sample
		e.started = true
		return
	}
	e.v = (1-e.w)*e.v + e.w*sample
}

// Value returns the current average (zero before any update).
func (e *EWMA) Value() float64 { return e.v }

// Weight returns the configured weight.
func (e *EWMA) Weight() float64 { return e.w }

// Reset clears the average.
func (e *EWMA) Reset() { e.v = 0; e.started = false }

// Mean is a simple running mean with count, for summary metrics.
type Mean struct {
	sum float64
	n   int64
}

// Add folds in one sample.
func (m *Mean) Add(v float64) { m.sum += v; m.n++ }

// Value returns the mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count returns the number of samples.
func (m *Mean) Count() int64 { return m.n }

// Welford tracks mean and variance online (used by calibration tests to
// check signal stability claims).
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds in one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Count returns the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// JainIndex computes Jain's fairness index over a set of allocations:
// (Σx)² / (n·Σx²), 1.0 = perfectly fair, 1/n = maximally unfair. Used to
// check that competing NetApp-T flows share the bottleneck fairly.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
