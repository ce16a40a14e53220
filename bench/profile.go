package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample reduced to what folding needs: the
// function names of its stack, innermost first with inlined frames
// expanded, its values and its string labels.
type stackSample struct {
	funcs  []string
	values []int64
	labels map[string]string
}

// parseProfile decodes a gzipped pprof protobuf (runtime/pprof output)
// with the standard library alone.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]uint64 // string-table indices of key and value
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → name string index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3: // Label
					var kv [2]uint64
					err := eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = v
						}
						return nil
					})
					if kv[1] != 0 {
						s.labels = append(s.labels, kv)
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ss.funcs = append(ss.funcs, str(fnName[fn]))
			}
		}
		for _, kv := range s.labels {
			if ss.labels == nil {
				ss.labels = map[string]string{}
			}
			ss.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ss)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

const reproPrefix = "repro/internal/"

// innermostRepro returns the innermost repro/internal frame of a stack
// (innermost first), without the path prefix ("sim.(*Engine).Step"), or
// "" when there is none.
func innermostRepro(funcs []string) string {
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, reproPrefix); ok {
			return rest
		}
	}
	return ""
}

// layerOf folds a stack (innermost first) to the layer it is charged to:
// the module of its innermost repro/internal frame, with the shard
// group's own frames (barriers, boundary exchange) split out as
// sim.shard. A stack with no such frame is the benchmark's own work
// ("bench") if a main-package frame is on it, and the Go runtime's
// (GC, scheduler) otherwise.
func layerOf(funcs []string) string {
	if fn := innermostRepro(funcs); fn != "" {
		mod := fn[:strings.IndexAny(fn+".", "./")]
		if mod == "sim" && hasAnyPrefix(fn, "sim.(*ShardGroup).", "sim.(*Boundary).", "sim.(*shardWorker).") {
			return "sim.shard"
		}
		return mod
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// folded is a profile summed per layer and per span label, with two
// finer buckets: the event heap inside sim, and barrier waits inside
// sim.shard (the coordinator handing out a window and collecting the
// shards, or a shard worker between windows).
type folded struct {
	byLayer   map[string]int64
	bySpan    map[string]int64
	total     int64
	eventHeap int64
	barrier   int64
}

// fold sums value index vi of every sample by layer and by the "span"
// pprof label (samples with no span label go to "-").
func fold(samples []stackSample, vi int) folded {
	f := folded{byLayer: map[string]int64{}, bySpan: map[string]int64{}}
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		f.byLayer[layerOf(s.funcs)] += v
		spanName := s.labels["span"]
		if spanName == "" {
			spanName = "-"
		}
		f.bySpan[spanName] += v
		f.total += v
		switch fn := innermostRepro(s.funcs); {
		case hasAnyPrefix(fn, "sim.(*eventHeap).", "sim.evLess"):
			f.eventHeap += v
		case fn == "sim.(*ShardGroup).runWindow" || fn == "sim.(*shardWorker).loop":
			f.barrier += v
		}
	}
	return f
}

// minus returns f − g, for cumulative profiles taken before and after.
func (f folded) minus(g folded) folded {
	d := folded{byLayer: map[string]int64{}, bySpan: map[string]int64{}, total: f.total - g.total,
		eventHeap: f.eventHeap - g.eventHeap, barrier: f.barrier - g.barrier}
	for k, v := range f.byLayer {
		d.byLayer[k] = v - g.byLayer[k]
	}
	for k, v := range f.bySpan {
		d.bySpan[k] = v - g.bySpan[k]
	}
	return d
}
