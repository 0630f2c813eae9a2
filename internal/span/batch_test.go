package span

import (
	"testing"
	"time"

	"retrolock/internal/obs"
)

func journalPair() (*Journal, *Journal) {
	epoch := time.Unix(100, 0)
	mk := func() *Journal {
		j := NewJournal(epoch, 128)
		j.Cross = &obs.Histogram{}
		j.Local = &obs.Histogram{}
		j.Net = &obs.Histogram{}
		j.Skew = &obs.Histogram{}
		return j
	}
	return mk(), mk()
}

// TestBatchMatchesDirectStamps drives an identical stamp sequence through
// one Batch flushed only when full and at the end, and through one flushed
// directly after every op, and checks the journals end up
// indistinguishable: same spans, same derived-histogram counts. Coalescing
// may not reorder or drop a stamp.
func TestBatchMatchesDirectStamps(t *testing.T) {
	perOp, batched := journalPair()
	var p, b Batch
	p.Reset(perOp)
	b.Reset(batched)

	epoch := time.Unix(100, 0)
	at := func(ms int64) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	remote := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	both := func(stamp func(*Batch)) {
		stamp(&p)
		p.Flush()
		stamp(&b)
	}

	for f := int64(0); f < 40; f++ {
		both(func(x *Batch) { x.Pressed(f, at(f)) })
		both(func(x *Batch) { x.SendRange(f-2, f, at(f+1)) })
		both(func(x *Batch) { x.Recv(f, at(f+2), remote(f)) })
		both(func(x *Batch) { x.RemoteExec(f, remote(f+1), 3) })
		both(func(x *Batch) { x.Executed(f, at(f+3)) })
		both(func(x *Batch) { x.Rendered(f, at(f+4)) })
		// Duplicate stamps must lose first-wins in both paths.
		both(func(x *Batch) { x.Executed(f, at(f+9)) })
	}
	b.Flush()

	want, got := perOp.Spans(), batched.Spans()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("batch holds %d spans, per-op flushing %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: batch span %+v != per-op span %+v", want[i].Frame, got[i], want[i])
		}
	}
	for name, pair := range map[string][2]*obs.Histogram{
		"cross": {perOp.Cross, batched.Cross},
		"local": {perOp.Local, batched.Local},
		"net":   {perOp.Net, batched.Net},
		"skew":  {perOp.Skew, batched.Skew},
	} {
		if pair[0].Count() != pair[1].Count() || pair[0].Sum() != pair[1].Sum() {
			t.Errorf("%s histogram diverged: per-op {%d %d} batch {%d %d}",
				name, pair[0].Count(), pair[0].Sum(), pair[1].Count(), pair[1].Sum())
		}
	}
}

// TestBatchAutoFlushesAtCapacity checks that overfilling the inline op array
// flushes rather than dropping or reordering stamps.
func TestBatchAutoFlushesAtCapacity(t *testing.T) {
	epoch := time.Unix(0, 0)
	j := NewJournal(epoch, 256)
	var b Batch
	b.Reset(j)
	for f := int64(0); f < batchCap+5; f++ {
		b.Pressed(f, epoch.Add(time.Duration(f)))
	}
	// The 33rd op flushed the first 32; five wait for Flush.
	if got := len(j.Spans()); got != batchCap || b.n != 5 {
		t.Fatalf("after auto-flush: %d spans in the journal, %d ops pending, want %d and 5", got, b.n, batchCap)
	}
	b.Flush()
	spans := j.Spans()
	if len(spans) != batchCap+5 {
		t.Fatalf("%d spans after Flush, want %d", len(spans), batchCap+5)
	}
	for i, s := range spans {
		if s.Frame != int64(i) || s.Pressed == 0 {
			t.Fatalf("frame %d lost across auto-flush: %+v", i, s)
		}
	}
}

// TestZeroBatchIsInert makes sure unattached (and nil) batches are safe on
// every method, mirroring the journal's nil-receiver contract.
func TestZeroBatchIsInert(t *testing.T) {
	var b Batch
	b.Pressed(1, time.Now())
	b.Executed(1, time.Now())
	b.Flush()
	var pb *Batch
	pb.Rendered(1, time.Now())
	pb.Flush()
	if b.n != 0 {
		t.Fatal("inert batch accumulated ops")
	}
}

// TestBatchStampingDoesNotAllocate pins the hot-path contract: recording into
// a batch and flushing it must stay on the stack.
func TestBatchStampingDoesNotAllocate(t *testing.T) {
	j := NewJournal(time.Unix(0, 0), 128)
	var b Batch
	b.Reset(j)
	now := time.Unix(1, 0)
	var f int64
	allocs := testing.AllocsPerRun(500, func() {
		b.Pressed(f, now)
		b.Executed(f, now)
		b.Rendered(f, now)
		b.Flush()
		f++
	})
	if allocs != 0 {
		t.Fatalf("batch stamping allocates %v per frame, want 0", allocs)
	}
}
