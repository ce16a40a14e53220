package transport

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestFluidTwinLaws pins both fluid twins bit for bit to their laws,
// written out here, over mark fractions 0, 1/3 and 1, loss on and off,
// and α of 0, 0.5 and 1. DCTCP smooths α with gain 1/16 toward the mark
// fraction, halves on loss, cuts by α/2 on marks and adds one MSS per
// RTT otherwise; Reno ignores marks, returns α unchanged, halves on loss
// and adds one MSS per RTT otherwise.
func TestFluidTwinLaws(t *testing.T) {
	const mss, rtt = 4096, 44 * sim.Microsecond
	incr := float64(mss) / rtt.Seconds()
	dctcp := func(rate, alpha, mf, lf float64) (float64, float64) {
		const g = 1.0 / 16
		alpha = float64((1-g)*alpha) + float64(g*mf)
		switch {
		case lf > 0:
			return rate * 0.5, alpha
		case mf > 0:
			return rate * (1 - float64(alpha/2)), alpha
		}
		return rate + incr, alpha
	}
	reno := func(rate, alpha, _, lf float64) (float64, float64) {
		if lf > 0 {
			return rate * 0.5, alpha
		}
		return rate + incr, alpha
	}
	for _, tc := range []struct {
		scheme string
		law    func(rate, alpha, mf, lf float64) (float64, float64)
	}{{"dctcp", dctcp}, {"", dctcp}, {"reno", reno}} {
		cc, err := FluidSchemeByName(tc.scheme, mss, rtt)
		if err != nil {
			t.Fatal(err)
		}
		for _, mf := range []float64{0, 1.0 / 3, 1} {
			for _, lf := range []float64{0, 1.0 / 3} {
				for _, alpha := range []float64{0, 0.5, 1} {
					const rate = 1.25e9
					gotRate, gotAlpha := cc.Advance(rate, alpha, mf, lf)
					wantRate, wantAlpha := tc.law(rate, alpha, mf, lf)
					if math.Float64bits(gotRate) != math.Float64bits(wantRate) ||
						math.Float64bits(gotAlpha) != math.Float64bits(wantAlpha) {
						t.Errorf("%q twin, mark %v, loss %v, α %v: got rate %v α %v, want %v and %v",
							tc.scheme, mf, lf, alpha, gotRate, gotAlpha, wantRate, wantAlpha)
					}
				}
			}
		}
	}
	if _, err := FluidSchemeByName("cubic", mss, rtt); err == nil {
		t.Fatal("cubic resolved to a fluid twin")
	}
}
