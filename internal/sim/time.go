// Package sim provides a deterministic, nanosecond-resolution
// discrete-event simulation engine used by every substrate in this
// repository: the host network datapath (NIC, PCIe, IIO, memory
// controller), the network fabric, the transport, and the hostCC module
// itself.
//
// The engine is single-threaded by design: all model state is mutated
// only from event callbacks, so models need no locking and every run is
// bit-for-bit reproducible for a given seed.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is simulation time in nanoseconds since the start of the run.
//
// It is deliberately a distinct type from time.Duration so that wall
// clock time and simulated time cannot be mixed accidentally.
type Time int64

// Convenient simulated-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration (both are nanoseconds).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time with an adaptive unit, e.g. "13.2us".
func (t Time) String() string {
	switch {
	case t == math.MinInt64: // -t overflows back to t
		return fmt.Sprintf("%.4gs", t.Seconds())
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromDuration converts a wall-clock duration literal (e.g. 5*time.Millisecond)
// into simulated time.
func FromDuration(d time.Duration) Time { return Time(d) }

// Rate is a data rate in bytes per second.
//
// Networking figures in the paper are quoted in Gbps (bits) while memory
// bandwidth is quoted in GBps (bytes); the constructors below keep the two
// conventions straight.
type Rate float64

// Gbps constructs a Rate from gigabits per second.
func Gbps(g float64) Rate { return Rate(g * 1e9 / 8) }

// GBps constructs a Rate from gigabytes per second (10^9 bytes).
func GBps(g float64) Rate { return Rate(g * 1e9) }

// Gbps reports the rate in gigabits per second.
func (r Rate) Gbps() float64 { return float64(r) * 8 / 1e9 }

// GBps reports the rate in gigabytes per second.
func (r Rate) GBps() float64 { return float64(r) / 1e9 }

// BytesPerSec reports the rate in bytes per second.
func (r Rate) BytesPerSec() float64 { return float64(r) }

// TimeFor returns the time needed to move n bytes at rate r.
// A non-positive rate yields an effectively infinite time, 2^62 ns, and
// so does any longer time, which a Time could not hold.
func (r Rate) TimeFor(n int) Time {
	const forever = Time(1) << 62
	if r <= 0 {
		return forever
	}
	ns := float64(n) / float64(r) * 1e9
	if !(ns < float64(forever)) {
		return forever
	}
	t := Time(ns)
	if float64(t) < ns { // round up so serialization never undershoots
		t++
	}
	return t
}

// BytesIn returns how many bytes move in d at rate r.
func (r Rate) BytesIn(d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r) * d.Seconds()
}

func (r Rate) String() string {
	if r >= GBps(1) {
		return fmt.Sprintf("%.4gGbps", r.Gbps())
	}
	return fmt.Sprintf("%.4gMbps", r.Gbps()*1e3)
}
