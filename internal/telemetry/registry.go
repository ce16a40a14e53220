// Package telemetry is the simulator's one observability layer: a
// registry of named instruments that every device model registers into,
// and a structured event tracer that records packet-lifecycle spans
// (per-hop residence with stall cause) and on-change counter tracks,
// exportable as Chrome-trace/Perfetto JSON. It owns every named
// instrument and the run's only per-packet record; internal/stats holds
// the arithmetic behind them.
//
// Two invariants shape the design (see DESIGN.md "Telemetry &
// observability"):
//
//   - Zero disabled-path cost. Components hold a nil *Tracer / nil *Track
//     by default; every hot-path hook is a single nil check. The registry
//     is pull-based — registration stores closures, reads happen only
//     when a consumer asks — so registering instruments costs nothing
//     per event.
//
//   - No perturbation. Telemetry only reads simulation state from within
//     existing event handlers; it never schedules events, draws random
//     numbers, or mutates the datapath, so event order, RNG streams and
//     state digests are bit-identical with telemetry on or off.
package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Kind classifies an instrument.
type Kind int

// Instrument kinds.
const (
	// KindCounter is a monotonically non-decreasing event or quantity
	// count (arrivals, drops, bytes).
	KindCounter Kind = iota
	// KindGauge is an instantaneous value (queue depth, credits, level).
	KindGauge
	// KindHistogram is a latency/size distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Instrument is one named, readable metric. Scalar kinds read through a
// closure; histograms expose the underlying distribution.
type Instrument struct {
	Name string
	Kind Kind
	Unit string
	Help string

	read func() float64
	hist *stats.Histogram
}

// Value returns the instrument's current scalar value. For histograms it
// returns the observation count (use Histogram for quantiles).
func (i *Instrument) Value() float64 {
	if i.hist != nil {
		return float64(i.hist.Count())
	}
	return i.read()
}

// Histogram returns the underlying distribution, or nil for scalar kinds.
func (i *Instrument) Histogram() *stats.Histogram { return i.hist }

// Registry is a catalogue of instruments, keyed by slash-separated names
// ("receiver/nic/drops"). A nil *Registry is valid and ignores all
// registrations, so components register unconditionally.
type Registry struct {
	by    map[string]*Instrument
	order []*Instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*Instrument)}
}

func (r *Registry) add(i *Instrument) {
	if r == nil {
		return
	}
	if _, dup := r.by[i.Name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate instrument %q", i.Name))
	}
	r.by[i.Name] = i
	r.order = append(r.order, i)
}

// Counter registers a monotonic counter read through fn.
func (r *Registry) Counter(name, unit, help string, fn func() float64) {
	r.add(&Instrument{Name: name, Kind: KindCounter, Unit: unit, Help: help, read: fn})
}

// Gauge registers an instantaneous value read through fn.
func (r *Registry) Gauge(name, unit, help string, fn func() float64) {
	r.add(&Instrument{Name: name, Kind: KindGauge, Unit: unit, Help: help, read: fn})
}

// Histogram registers a distribution instrument over h.
func (r *Registry) Histogram(name, unit, help string, h *stats.Histogram) {
	r.add(&Instrument{Name: name, Kind: KindHistogram, Unit: unit, Help: help, hist: h,
		read: func() float64 { return float64(h.Count()) }})
}

// Get returns the named instrument.
func (r *Registry) Get(name string) (*Instrument, bool) {
	if r == nil {
		return nil, false
	}
	i, ok := r.by[name]
	return i, ok
}

// Each calls fn for every instrument in registration order.
func (r *Registry) Each(fn func(*Instrument)) {
	if r == nil {
		return
	}
	for _, i := range r.order {
		fn(i)
	}
}

// Names returns all instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.order))
	for _, i := range r.order {
		out = append(out, i.Name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.order)
}
