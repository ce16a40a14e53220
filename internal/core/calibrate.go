package core

import "repro/internal/sim"

// Calibration of the occupancy threshold. The paper picks I_T = 70 by
// measuring idle occupancy (~65 with DDIO off) and adding headroom, and
// I_T = 50 with DDIO enabled (idle ~45, §5.2). Hardware (and DDIO
// configuration) varies, so a deployment needs to repeat that measurement;
// Calibrate automates it: sample the uncongested occupancy signal for a
// window, then set I_T to the observed level times a margin factor.

// DefaultCalibrationMargin reproduces the paper's choices: 65×1.08 ≈ 70
// and 45×1.11 ≈ 50; 1.1 splits the difference.
const DefaultCalibrationMargin = 1.1

// Calibrate measures the occupancy signal for the given duration and then
// sets I_T = measured × margin (margin <= 0 uses the default). done, if
// non-nil, receives the chosen threshold. Sampling must already be
// running (Start), and the host should be carrying representative
// *uncongested* network traffic during the window.
func (h *HostCC) Calibrate(window sim.Time, margin float64, done func(it float64)) {
	if window <= 0 {
		panic("core: non-positive calibration window")
	}
	if margin <= 0 {
		margin = DefaultCalibrationMargin
	}
	if !h.running {
		panic("core: Calibrate requires a running sampler")
	}
	sim.NewTimer(h.e, func() {
		it := h.isEWMA.Value() * margin
		if it > 0 {
			h.SetIT(it)
		}
		if done != nil {
			done(h.cfg.IT)
		}
	}).Reset(window)
}

// SetIT replaces the occupancy threshold, updating the default policy if
// it is in use. Custom policies hold their own thresholds and are not
// touched.
func (h *HostCC) SetIT(it float64) {
	if it <= 0 {
		panic("core: non-positive I_T")
	}
	h.cfg.IT = it
	if p, ok := h.cfg.Policy.(TargetBandwidthPolicy); ok {
		p.IT = it
		h.cfg.Policy = p
	}
}

// IT returns the current occupancy threshold.
func (h *HostCC) IT() float64 { return h.cfg.IT }
