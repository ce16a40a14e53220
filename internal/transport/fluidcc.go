// Fluid congestion-control twins: the coarse-tick rate laws the hybrid
// fluid/packet tier integrates for background flows. A twin is the ODE
// form of its packet-level controller — instead of reacting per ACK it
// advances a sending rate once per model RTT, responding to the mark
// and loss fractions its path's fluid queues produced over that window.
// Twins are stateless rate laws (per-flow state — rate, alpha — lives
// in the fluid network), so one twin value serves a whole population.
package transport

import (
	"fmt"

	"repro/internal/sim"
)

// FluidCC is a fluid twin; FluidSchemeByName builds one. Both twins
// are one law with a different gain:
//
//   - dctcp (g = 1/16, the packet controller's default) mirrors the
//     packet-level dctcp controller: α smoothed with gain g toward the
//     observed mark fraction, one multiplicative decrease of α/2 per
//     marked window, one MSS per RTT of additive increase otherwise.
//     Loss (queue overflow) responds like Reno — halve — since drop-tail
//     loss is the stronger signal.
//   - reno (g = 0) mirrors the packet-level reno controller: AIMD on
//     loss only. It ignores ECN marks and leaves α unchanged; against a
//     marking switch it fills the buffer until drop-tail loss, and the
//     fluid queue model reproduces exactly that overflow.
type FluidCC struct {
	g    float64 // α gain; 0 ignores marks
	incr float64 // additive increase per window, bytes/sec
}

// Advance advances one flow's rate by one RTT window. rate is bytes/sec;
// alpha is the flow's smoothed congestion estimate (DCTCP's α); markFrac
// and lossFrac are the fractions of the window's ticks during which the
// path marked or overflowed. Each product is wrapped in float64(...), so
// no architecture fuses it into the addition that follows.
func (f FluidCC) Advance(rate, alpha, markFrac, lossFrac float64) (newRate, newAlpha float64) {
	if f.g > 0 {
		alpha = float64((1-f.g)*alpha) + float64(f.g*markFrac)
	} else {
		markFrac = 0
	}
	switch {
	case lossFrac > 0:
		rate *= 0.5
	case markFrac > 0:
		rate *= 1 - float64(alpha/2)
	default:
		rate += f.incr
	}
	return rate, alpha
}

// aiPerWindow converts "one mss per rtt of window growth" into a rate
// increment per RTT window: Δrate = mss/rtt.
func aiPerWindow(mss int, rtt sim.Time) float64 {
	if mss <= 0 {
		panic("transport: non-positive fluid MSS")
	}
	if rtt <= 0 {
		panic("transport: non-positive fluid RTT")
	}
	return float64(mss) / rtt.Seconds()
}

// FluidSchemeByName resolves a fluid twin by its packet scheme name,
// with an additive increase of one mss per rtt.
func FluidSchemeByName(name string, mss int, rtt sim.Time) (FluidCC, error) {
	switch name {
	case "", "dctcp":
		return FluidCC{g: 1.0 / 16, incr: aiPerWindow(mss, rtt)}, nil
	case "reno":
		return FluidCC{incr: aiPerWindow(mss, rtt)}, nil
	}
	return FluidCC{}, fmt.Errorf("transport: no fluid twin for scheme %q (have dctcp, reno)", name)
}
