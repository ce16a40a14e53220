package fluid

import (
	"encoding/binary"
	"math"

	"repro/internal/snapshot"
)

// fluidSnapVersion versions the fluid tier's encoding; bump on layout
// changes so images of the two layouts never digest alike.
const fluidSnapVersion = 2

// recordBytes is one flow's record in the chunk digests: state (u8), the
// five tick counters (u16 each: winLeft, markedTicks, lossTicks,
// congTicks, calmTicks), then rate and α as IEEE-754 bits, all
// little-endian.
const recordBytes = 1 + 5*2 + 2*8

// Snapshot encodes the network's evolving state: tick and transition
// counters, the integrated goodput, per-resource queue/fault state, the
// flow count, and then one u64 per chunk of chunkFlows flows, in chunk
// order: snapshot.HashBytes of the chunk's flow records. Kept demand
// derives from the flows' rates and states and the views are recomputed
// every tick, so neither is encoded. Shapes (resource parameters, flow
// paths) come from construction; only the resource and flow counts are
// encoded, so differently shaped networks never digest alike.
//
// The chunks are encoded and hashed by the caller and helpers from the
// sweep pool, like the flow pass (and on the same Batch, so Snapshot
// must run where Tick runs, never beside it). Chunk boundaries are the
// constant chunkFlows, so the bytes are the same at any participant
// count. The per-participant record scratch and the chunk digests are
// not state; after the first call Snapshot allocates nothing of its own.
func (n *Network) Snapshot(enc *snapshot.Encoder) {
	enc.U32(fluidSnapVersion)
	enc.U64(n.ticks)
	enc.U64(n.promotions)
	enc.U64(n.demotions)
	enc.F64(n.delivered)
	enc.Int(len(n.res))
	for i := range n.res {
		r := &n.res[i]
		enc.F64(r.q)
		enc.Bool(r.faulted)
	}
	enc.Int(len(n.flows))
	chunks := (len(n.flows) + chunkFlows - 1) / chunkFlows
	workers := n.participants(chunks)
	n.growParts(workers)
	size := min(len(n.flows), chunkFlows) * recordBytes
	for w := range n.parts[:workers] {
		if p := &n.parts[w]; len(p.records) < size {
			p.records = make([]byte, size)
		}
	}
	if len(n.sums) < chunks {
		n.sums = append(n.sums, make([]uint64, chunks-len(n.sums))...)
	}
	n.batch.Run(chunks, workers, n.hash)
	for _, h := range n.sums[:chunks] {
		enc.U64(h)
	}
}

// hashChunk encodes chunk c's flow records into the participant's
// scratch and stores their hash in n.sums[c].
func (n *Network) hashChunk(slot, c int) {
	lo := c * chunkFlows
	flows := n.flows[lo:min(lo+chunkFlows, len(n.flows))]
	buf := n.parts[slot].records[:len(flows)*recordBytes]
	for j := range flows {
		f := &flows[j]
		b := buf[j*recordBytes : (j+1)*recordBytes]
		b[0] = f.state
		binary.LittleEndian.PutUint16(b[1:], f.winLeft)
		binary.LittleEndian.PutUint16(b[3:], f.markedTicks)
		binary.LittleEndian.PutUint16(b[5:], f.lossTicks)
		binary.LittleEndian.PutUint16(b[7:], f.congTicks)
		binary.LittleEndian.PutUint16(b[9:], f.calmTicks)
		binary.LittleEndian.PutUint64(b[11:], math.Float64bits(f.rate))
		binary.LittleEndian.PutUint64(b[19:], math.Float64bits(f.alpha))
	}
	n.sums[c] = snapshot.HashBytes(buf)
}
