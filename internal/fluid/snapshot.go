package fluid

import (
	"math"

	"repro/internal/snapshot"
)

// fluidSnapVersion versions the fluid tier's encoding; bump on layout
// changes so images of the two layouts never digest alike.
const fluidSnapVersion = 3

// Snapshot encodes the network's evolving state: tick and transition
// counters, the integrated goodput, per-resource queue/fault state, the
// flow count, and then one u64 per chunk of chunkFlows flows, in chunk
// order: the chunk's flows folded, in flow order, into a hash state that
// starts at zero, four words per flow by snapshot.HashWord:
//
//	state | winLeft<<8 | markedTicks<<24 | lossTicks<<40
//	congTicks | calmTicks<<16
//	the IEEE-754 bits of rate
//	the IEEE-754 bits of alpha
//
// Each field lies in one word, so a change to one field of one flow
// always moves its chunk's hash (see HashWord). Kept demand derives
// from the flows' rates and states and the views are recomputed every
// tick, so neither is encoded. Shapes (resource parameters, flow paths)
// come from construction; only the resource and flow counts are encoded,
// so differently shaped networks never digest alike.
//
// The chunks are hashed by the caller and helpers from the sweep pool,
// like the flow pass (and on the same Batch, so Snapshot must run where
// Tick runs, never beside it). Chunk boundaries are the constant
// chunkFlows, so the hashes are the same at any participant count. The
// chunk hashes are not state; after the first call Snapshot allocates
// nothing of its own.
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
	if len(n.sums) < chunks {
		n.sums = append(n.sums, make([]uint64, chunks-len(n.sums))...)
	}
	n.batch.Run(chunks, n.participants(chunks), n.hash)
	for _, h := range n.sums[:chunks] {
		enc.U64(h)
	}
}

// hashChunk folds chunk c's hot and cold records into n.sums[c].
func (n *Network) hashChunk(_, c int) {
	lo := c * chunkFlows
	hi := min(lo+chunkFlows, len(n.flows))
	flows, cold := n.flows[lo:hi], n.cold[lo:hi]
	var h uint64
	for j := range flows {
		f, k := &flows[j], &cold[j]
		h = snapshot.HashWord(h, uint64(f.state)|uint64(f.winLeft)<<8|uint64(f.markedTicks)<<24|uint64(f.lossTicks)<<40)
		h = snapshot.HashWord(h, uint64(k.congTicks)|uint64(k.calmTicks)<<16)
		h = snapshot.HashWord(h, math.Float64bits(f.rate))
		h = snapshot.HashWord(h, math.Float64bits(k.alpha))
	}
	n.sums[c] = h
}
