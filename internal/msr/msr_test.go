package msr

import (
	"testing"

	"repro/internal/sim"
)

func TestReadReturnsCounterValueAtRetire(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	counter := uint64(10)
	f.RegisterReader(IIOOccupancy, func() uint64 { return counter })
	// Counter advances while the read is in flight; the read must observe
	// the retire-time value.
	sim.NewTimer(e, func() { counter = 99 }).ResetAt(100)
	var got uint64
	var lat sim.Time
	f.Read(IIOOccupancy, func(v uint64, l sim.Time, _ error) { got, lat = v, l })
	e.Run()
	if got != 99 {
		t.Fatalf("read value = %d, want retire-time 99", got)
	}
	if lat < readLatencyBase || lat > readLatencyMax {
		t.Fatalf("latency %v outside [%v, %v]", lat, readLatencyBase, readLatencyMax)
	}
}

func TestReadLatencyDistribution(t *testing.T) {
	e := sim.NewEngine(7)
	f := NewFile(e)
	f.RegisterReader(IIOInsertions, func() uint64 { return 0 })
	var lats []sim.Time
	var issue func()
	issue = func() {
		f.Read(IIOInsertions, func(_ uint64, l sim.Time, _ error) {
			lats = append(lats, l)
			if len(lats) < 2000 {
				issue()
			}
		})
	}
	issue()
	e.Run()
	var sum sim.Time
	for _, l := range lats {
		if l < readLatencyBase || l > readLatencyMax {
			t.Fatalf("latency %v out of range", l)
		}
		sum += l
	}
	mean := float64(sum) / float64(len(lats))
	// Mean should be near base + tail mean (~580ns), clipped slightly.
	if mean < 500 || mean > 680 {
		t.Fatalf("mean read latency = %.0fns, want ~580ns", mean)
	}
}

func TestUnregisteredAccessPanics(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("read of unregistered register did not panic")
			}
		}()
		f.Read(Address(0xFFFF), func(uint64, sim.Time, error) {})
	}()
	f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate reader registration did not panic")
			}
		}()
		f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	}()
}

func TestTSCAndHas(t *testing.T) {
	e := sim.NewEngine(1)
	f := NewFile(e)
	sim.NewTimer(e, func() {
		if f.ReadTSC() != 12345 {
			t.Errorf("TSC = %v", f.ReadTSC())
		}
	}).ResetAt(12345)
	e.Run()
	if f.Has(IIOOccupancy) {
		t.Error("Has reported unregistered register")
	}
	f.RegisterReader(IIOOccupancy, func() uint64 { return 0 })
	if !f.Has(IIOOccupancy) {
		t.Error("Has missed registered register")
	}
}
