package span

import "time"

// Batch is how the frame loop stamps a Journal: it coalesces a frame's worth
// of stamps into one mutex acquisition. The 60 FPS hot path stamps several
// hops per frame (pressed, sent, received, executed, rendered); stamping them
// one by one would cost a lock round-trip and a cache bounce each. A Batch
// records the ops into a fixed inline array (no lock, no allocation) and
// Flush applies them all under a single lock, in recorded order. Stamps are
// first-wins, so a later op on the same field does nothing.
//
// A Batch belongs to one goroutine (the frame loop); only Flush touches the
// journal. The zero Batch (no journal attached) is a no-op on every method.
const batchCap = 32

const (
	opPressed uint8 = iota + 1
	opSendRange
	opRecv
	opExecuted
	opRendered
	opRemoteExec
)

// batchOp is one deferred stamp. Field meaning varies by kind:
// SendRange uses frame=from aux=to; Recv uses aux=remoteSendNs;
// RemoteExec uses t=remoteNs aux=lag.
type batchOp struct {
	kind  uint8
	frame int64
	aux   int64
	t     int64
}

// Batch accumulates deferred stamps for one Journal. Embed it by value and
// call Reset to attach the journal.
type Batch struct {
	j   *Journal
	n   int
	ops [batchCap]batchOp
}

// Reset attaches the batch to j (nil detaches) and discards pending ops.
func (b *Batch) Reset(j *Journal) {
	b.j = j
	b.n = 0
}

func (b *Batch) add(op batchOp) {
	if b.n == batchCap {
		b.Flush()
	}
	b.ops[b.n] = op
	b.n++
}

// Pressed marks the local input for frame as sampled at at.
func (b *Batch) Pressed(frame int64, at time.Time) {
	if b == nil || b.j == nil {
		return
	}
	b.add(batchOp{kind: opPressed, frame: frame, t: b.j.ns(at)})
}

// SendRange marks frames from..to (inclusive) as encoded and sent at at.
// Sync messages carry a contiguous window of frames, so one op covers the
// whole message. It also advances the retransmission attribution point:
// later ARQ retransmits count against the newest frame sent.
func (b *Batch) SendRange(from, to int64, at time.Time) {
	if b == nil || b.j == nil || to < from {
		return
	}
	b.add(batchOp{kind: opSendRange, frame: from, aux: to, t: b.j.ns(at)})
}

// Recv marks the peer's input for frame as received and merged at at, with
// the peer's send instant already mapped to the local clock (remoteSendNs,
// ns since epoch; <= 0 when no offset estimate exists yet). It observes the
// one-way network latency when the mapping is available.
func (b *Batch) Recv(frame int64, at time.Time, remoteSendNs int64) {
	if b == nil || b.j == nil {
		return
	}
	b.add(batchOp{kind: opRecv, frame: frame, aux: remoteSendNs, t: b.j.ns(at)})
}

// Executed marks this site as having begun executing frame at at. It closes
// every derived measurement whose other endpoint is already stamped: local
// latency (own press), cross-site latency (peer press) and execution skew
// (peer begin).
func (b *Batch) Executed(frame int64, at time.Time) {
	if b == nil || b.j == nil {
		return
	}
	b.add(batchOp{kind: opExecuted, frame: frame, t: b.j.ns(at)})
}

// Rendered marks this site as having completed frame's emulation step.
func (b *Batch) Rendered(frame int64, at time.Time) {
	if b == nil || b.j == nil {
		return
	}
	b.add(batchOp{kind: opRendered, frame: frame, t: b.j.ns(at)})
}

// RemoteExec records that the peer began executing frame at remoteNs
// (already mapped to the local clock). Under local lag, the input the peer
// pressed while beginning frame takes effect at frame+lag, so the same
// instant anchors RemotePressed(frame+lag), the start of the cross-site
// input journey. Both derived observations fire when this stamp is the later
// of the pair.
func (b *Batch) RemoteExec(frame int64, remoteNs, lag int64) {
	if b == nil || b.j == nil || remoteNs <= 0 {
		return
	}
	b.add(batchOp{kind: opRemoteExec, frame: frame, t: remoteNs, aux: lag})
}

// Flush applies every pending op to the journal under one lock, in the order
// they were recorded, and empties the batch.
func (b *Batch) Flush() {
	if b == nil || b.j == nil || b.n == 0 {
		return
	}
	b.j.applyBatch(b.ops[:b.n])
	b.n = 0
}

// applyBatch is the single-lock application of a recorded op sequence.
func (j *Journal) applyBatch(ops []batchOp) {
	j.mu.Lock()
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opPressed:
			j.pressedLocked(op.frame, op.t)
		case opSendRange:
			j.sendRangeLocked(op.frame, op.aux, op.t)
		case opRecv:
			j.recvLocked(op.frame, op.t, op.aux)
		case opExecuted:
			j.executedLocked(op.frame, op.t)
		case opRendered:
			j.renderedLocked(op.frame, op.t)
		case opRemoteExec:
			j.remoteExecLocked(op.frame, op.t, op.aux)
		}
	}
	j.mu.Unlock()
}
