package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(1.0 / 8)
	for i := 0; i < 200; i++ {
		e.Update(42)
	}
	if e.Value() != 42 {
		t.Fatalf("EWMA of constant = %v, want 42", e.Value())
	}
}

func TestEWMAFirstSampleSeeds(t *testing.T) {
	e := NewEWMA(1.0 / 256)
	e.Update(100)
	if e.Value() != 100 {
		t.Fatalf("first sample should seed: got %v", e.Value())
	}
}

func TestEWMAWeightControlsReactionSpeed(t *testing.T) {
	fast, slow := NewEWMA(1.0/8), NewEWMA(1.0/256)
	fast.Update(0)
	slow.Update(0)
	for i := 0; i < 8; i++ {
		fast.Update(100)
		slow.Update(100)
	}
	if fast.Value() <= slow.Value() {
		t.Fatalf("fast EWMA (%v) should react faster than slow (%v)", fast.Value(), slow.Value())
	}
}

// Property: EWMA output always stays within the range of its inputs.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(samples []float64, wRaw uint8) bool {
		w := (float64(wRaw%255) + 1) / 256
		e := NewEWMA(w)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			lo = math.Min(lo, s)
			hi = math.Max(hi, s)
			e.Update(s)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMABadWeightPanics(t *testing.T) {
	for _, w := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", w)
				}
			}()
			NewEWMA(w)
		}()
	}
}

func TestHistogramQuantilesCloseToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHistogram(30)
	var raw []float64
	for i := 0; i < 50000; i++ {
		// Heavy-tailed latency-like distribution.
		v := math.Exp(rng.NormFloat64()*1.5 + 4)
		h.Add(v)
		raw = append(raw, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := ExactQuantile(raw, q)
		relErr := math.Abs(got-want) / want
		if relErr > 0.06 {
			t.Errorf("q=%v: hist=%.4g exact=%.4g relErr=%.3f", q, got, want, relErr)
		}
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram(30)
	for _, v := range []float64{3, 1, 2} {
		h.Add(v)
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 3 {
		t.Fatalf("extremes: q0=%v q1=%v, want 1 and 3", h.Quantile(0), h.Quantile(1))
	}
	if h.Mean() != 2 {
		t.Fatalf("mean = %v, want 2", h.Mean())
	}
	if h.Count() != 3 {
		t.Fatalf("count = %v, want 3", h.Count())
	}
}

func TestHistogramEmptyAndZeros(t *testing.T) {
	h := NewHistogram(30)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Add(0)
	h.Add(0)
	h.Add(10)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("median of {0,0,10} = %v, want 0", got)
	}
}

// Property: quantiles are monotone in q.
func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(vals []uint32) bool {
		h := NewHistogram(30)
		for _, v := range vals {
			h.Add(float64(v % 1000000))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram(30)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	vals, fracs := h.CDF()
	if len(vals) == 0 || len(vals) != len(fracs) {
		t.Fatal("CDF shape mismatch")
	}
	if fracs[len(fracs)-1] != 1 {
		t.Fatalf("CDF should end at 1, got %v", fracs[len(fracs)-1])
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] < fracs[i-1] || vals[i] < vals[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestHistogramPercentilesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := NewHistogram(30)
	for i := 0; i < 10000; i++ {
		h.Add(rng.Float64() * 1e6)
	}
	p := h.Percentiles()
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			t.Fatalf("percentiles out of order: %v", p)
		}
	}
	if !strings.Contains(h.String(), "n=10000") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestMeterRates(t *testing.T) {
	var m Meter
	m.Add(1000)
	m.Mark(1000) // t=1us
	m.Add(12500)
	// 12500 bytes over 1us = 12.5GB/s = 100Gbps.
	if got := m.RateSinceMark(2000).Gbps(); math.Abs(got-100) > 0.01 {
		t.Fatalf("rate = %vGbps, want 100", got)
	}
	if m.BytesSinceMark() != 12500 {
		t.Fatalf("BytesSinceMark = %d", m.BytesSinceMark())
	}
	if m.Total() != 13500 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.RateSinceMark(1000) != 0 {
		t.Fatal("zero window should report zero rate")
	}
}

func TestCounterMark(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Mark()
	c.Add(3)
	if c.SinceMark() != 3 || c.Total() != 8 {
		t.Fatalf("SinceMark=%d Total=%d", c.SinceMark(), c.Total())
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10)   // 10 for [0,100)
	tw.Set(100, 20) // 20 for [100,200)
	if got := tw.Integral(100); got != 1000 {
		t.Fatalf("integral over [0,100] = %v, want 1000", got)
	}
	if got := tw.Integral(200); got != 3000 {
		t.Fatalf("integral over [0,200] = %v, want 3000", got)
	}
	if tw.Value() != 20 {
		t.Fatalf("instantaneous = %v, want 20", tw.Value())
	}
}

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "iio"}
	s.Append(10, 65)
	s.Append(20, 93)
	s.Append(30, 70)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.At(25) != 93 {
		t.Fatalf("At(25) = %v, want 93", s.At(25))
	}
	if s.At(5) != 0 {
		t.Fatalf("At(5) = %v, want 0", s.At(5))
	}
	lo, hi := s.MinMax()
	if lo != 65 || hi != 93 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	if got := s.Mean(); math.Abs(got-76) > 1e-9 {
		t.Fatalf("Mean = %v, want 76", got)
	}
	if got := s.FractionAbove(69); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("FractionAbove = %v", got)
	}
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "time_us,iio\n") {
		t.Fatalf("CSV header: %q", sb.String())
	}
}

func TestRecorderSamplesProbes(t *testing.T) {
	e := sim.NewEngine(1)
	r := NewRecorder(e, 10)
	v := 0.0
	s := r.Track("v", func() float64 { return v })
	sim.NewTimer(e, func() { v = 7 }).ResetAt(15)
	sim.NewTimer(e, r.Stop).ResetAt(45)
	e.Run()
	// Ticks at 10 (v=0), 20,30,40 (v=7).
	if s.Len() != 4 {
		t.Fatalf("series len = %d, want 4", s.Len())
	}
	if s.Values[0] != 0 || s.Values[1] != 7 {
		t.Fatalf("values = %v", s.Values)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{10, 10, 10, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: %v", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("one hog: %v", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all zero: %v", got)
	}
	mid := JainIndex([]float64{3, 1, 1, 1})
	if mid <= 0.25 || mid >= 1 {
		t.Fatalf("mixed shares: %v", mid)
	}
}
