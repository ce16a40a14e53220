// Package stats is the arithmetic that device models and figure runners
// compute with: exponentially weighted moving averages (the paper's
// congestion-signal filters), log-bucketed latency histograms (tail
// latency figures), windowed rate meters and counters (throughput and
// memory-bandwidth figures), time-weighted integrals (the IIO's ROCC
// counter), and the time-series recorder behind the microscopic
// behaviour figures 8, 18 and 19. It names nothing that a run reports:
// every named instrument, and the only per-packet record, belong to
// internal/telemetry.
package stats

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
	e.v = float64((1-e.w)*e.v) + float64(e.w*sample)
}

// Value returns the current average (zero before any update).
func (e *EWMA) Value() float64 { return e.v }

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
		sq += float64(x * x)
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
