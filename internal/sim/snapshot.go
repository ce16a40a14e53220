package sim

import "repro/internal/snapshot"

// Snapshot encodes the engine's position and RNG state: clock, sequence
// counter, processed-event count, pending-event count, stop flag, and the
// RNG cursor (seed + number of draws, which pins the generator's state
// without encoding it). Queued events name handlers whose IDs mean
// nothing outside this engine, so the queue's length stands in for its
// contents: two runs whose queues differ in size digest differently. Runs
// resume by replay — see package snapshot.
func (e *Engine) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(e.now))
	enc.U64(e.seq)
	enc.U64(e.Processed)
	enc.Int(e.q.len())
	enc.Bool(e.stopped)
	enc.I64(e.seed)
	enc.U64(e.src.draws)
}

// SnapshotState encodes the timer's armed/deadline state and generation.
// The pending engine event backing an armed timer is covered by the
// engine's pending-event count.
func (t *Timer) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool(t.set)
	enc.I64(int64(t.at))
	enc.U64(t.gen)
}
