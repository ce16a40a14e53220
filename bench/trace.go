package main

import (
	"context"
	"encoding/json"
	"runtime/pprof"
	"time"
)

// tracer records a span around each of the benchmark's own calls into
// the layers (set-up, warmup, measure, each digest frame, verify, eval)
// and runs the call under a pprof label naming the span, so CPU profile
// samples can be charged to spans. Spans stay in memory until the run
// ends. A nil tracer only times the calls.
type tracer struct {
	origin time.Time
	ctx    context.Context
	spans  []span
	open   []int // indices of the enclosing spans, innermost last
}

// span is one timed call; times are offsets from the tracer's origin.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int // index of the enclosing span, -1 at the root
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ctx: context.Background()}
}

// span runs fn inside a span called name and returns its duration in
// seconds. Spans nest; they are opened only from one goroutine (the
// benchmark's), since shard-group hooks run on the goroutine that
// advances the group.
func (t *tracer) span(name string, fn func()) float64 {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start).Seconds()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), Parent: parent})
	t.open = append(t.open, idx)
	outer := t.ctx
	pprof.Do(outer, pprof.Labels("span", name), func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
	t.ctx = outer
	t.open = t.open[:len(t.open)-1]
	end := time.Now()
	t.spans[idx].End = end.Sub(t.origin)
	return end.Sub(start).Seconds()
}

// label runs fn under a pprof label without recording a span, so that
// goroutines fn starts carry that label rather than the enclosing
// span's for their whole life.
func (t *tracer) label(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	pprof.Do(t.ctx, pprof.Labels("span", name), func(context.Context) { fn() })
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += (s.End - s.Start).Seconds()
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= (s.End - s.Start).Seconds()
		}
	}
	return self
}

// chromeTrace renders the spans in the Chrome trace event format
// (chrome://tracing, Perfetto).
func (t *tracer) chromeTrace() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
}
