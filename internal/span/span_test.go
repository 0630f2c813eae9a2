package span

import (
	"testing"
	"time"

	"retrolock/internal/obs"
)

var testEpoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return testEpoch.Add(d) }

func TestJournalLifecycleDerivesLatencies(t *testing.T) {
	j := NewJournal(testEpoch, 128)
	j.Cross = &obs.Histogram{}
	j.Local = &obs.Histogram{}
	j.Net = &obs.Histogram{}
	j.Skew = &obs.Histogram{}
	var b Batch
	b.Reset(j)

	const lag = 6
	// Local journey for frame 10: pressed at 100ms (buffered for frame 10 =
	// current frame 4 + lag), executed at 200ms.
	b.Pressed(10, at(100*time.Millisecond))
	b.SendRange(4, 10, at(101*time.Millisecond))
	b.Executed(10, at(200*time.Millisecond))
	b.Rendered(10, at(201*time.Millisecond))
	b.Flush()
	if got := j.Local.Count(); got != 1 {
		t.Fatalf("local latency observations = %d, want 1", got)
	}
	// 100ms -> bucket of 10^8 ns.
	if got, lo := j.Local.Sum(), int64(100*time.Millisecond); got != lo {
		t.Fatalf("local latency sum = %d, want %d", got, lo)
	}

	// Remote journey: the peer began frame 4 at 95ms (mapped), so its input
	// pressed there takes effect at frame 10. We already executed frame 10
	// at 200ms -> cross latency 105ms, observed when the remote stamp lands.
	b.RemoteExec(4, int64(95*time.Millisecond), lag)
	b.Flush()
	if got := j.Cross.Count(); got != 1 {
		t.Fatalf("cross latency observations = %d, want 1", got)
	}
	if got := j.Cross.Sum(); got != int64(105*time.Millisecond) {
		t.Fatalf("cross latency sum = %d, want %d", got, int64(105*time.Millisecond))
	}

	// Skew for frame 10: we executed at 200ms, peer at 204ms -> 4ms.
	b.RemoteExec(10, int64(204*time.Millisecond), lag)
	b.Flush()
	if got := j.Skew.Count(); got != 1 {
		t.Fatalf("skew observations = %d, want 1", got)
	}
	if got := j.Skew.Sum(); got != int64(4*time.Millisecond) {
		t.Fatalf("skew sum = %d, want %d", got, int64(4*time.Millisecond))
	}

	// Net latency: peer sent at 150ms, we received at 152ms -> 2ms.
	b.Recv(12, at(152*time.Millisecond), int64(150*time.Millisecond))
	b.Flush()
	if got := j.Net.Count(); got != 1 {
		t.Fatalf("net latency observations = %d, want 1", got)
	}
	if got := j.Net.Sum(); got != int64(2*time.Millisecond) {
		t.Fatalf("net latency sum = %d, want %d", got, int64(2*time.Millisecond))
	}

	resident := false
	for _, s := range j.Spans() {
		if s.Frame != 10 {
			continue
		}
		resident = true
		if s.Pressed == 0 || s.Sent == 0 || s.Executed == 0 || s.Rendered == 0 ||
			s.RemoteExec == 0 || s.RemotePressed == 0 {
			t.Fatalf("span 10 missing stamps: %+v", s)
		}
	}
	if !resident {
		t.Fatal("span for frame 10 not resident")
	}
}

func TestJournalStampsAreFirstWins(t *testing.T) {
	j := NewJournal(testEpoch, 64)
	j.Skew = &obs.Histogram{}
	var b Batch
	b.Reset(j)
	b.Executed(5, at(10*time.Millisecond))
	b.Executed(5, at(99*time.Millisecond)) // ignored
	b.Flush()
	if s := j.Spans(); len(s) != 1 || s[0].Executed != int64(10*time.Millisecond) {
		t.Fatalf("spans = %+v, want frame 5 with the first stamp %d", s, int64(10*time.Millisecond))
	}
	// Duplicate remote exec reports (every incoming message repeats the
	// newest) must observe skew exactly once.
	b.RemoteExec(5, int64(12*time.Millisecond), 0)
	b.RemoteExec(5, int64(50*time.Millisecond), 0)
	b.Flush()
	if got := j.Skew.Count(); got != 1 {
		t.Fatalf("skew observed %d times, want exactly 1", got)
	}
	if got := j.Skew.Sum(); got != int64(2*time.Millisecond) {
		t.Fatalf("skew sum = %d, want %d", got, int64(2*time.Millisecond))
	}
}

// TestJournalRingReusesSlotsAndDropsStale checks a 64-slot ring: frame 3+64
// takes frame 3's slot (TestJournalSpansOrdered checks that all 64 are held).
func TestJournalRingReusesSlotsAndDropsStale(t *testing.T) {
	j := NewJournal(testEpoch, 64)
	var b Batch
	b.Reset(j)
	b.Executed(3, at(time.Millisecond))
	// Frame 3+64 lands on the same slot and must evict frame 3.
	b.Executed(3+64, at(2*time.Millisecond))
	b.Flush()
	if s := j.Spans(); len(s) != 1 || s[0].Frame != 67 || s[0].Executed != int64(2*time.Millisecond) {
		t.Fatalf("spans = %+v, want frame 67 alone (frame 3 evicted)", s)
	}
	// A stale stamp for the evicted frame must not corrupt the new resident.
	b.Pressed(3, at(5*time.Millisecond))
	b.Flush()
	if s := j.Spans(); len(s) != 1 || s[0].Frame != 67 || s[0].Pressed != 0 {
		t.Fatalf("stale stamp for frame 3 landed: %+v", s)
	}
}

func TestJournalSpansOrdered(t *testing.T) {
	j := NewJournal(testEpoch, 64)
	var b Batch
	b.Reset(j)
	for f := int64(100); f < 180; f++ { // wraps the 64-slot ring
		b.Executed(f, at(time.Duration(f)*time.Millisecond))
	}
	b.Flush()
	spans := j.Spans()
	if len(spans) != 64 {
		t.Fatalf("resident spans = %d, want 64", len(spans))
	}
	for i, s := range spans {
		if want := int64(116 + i); s.Frame != want {
			t.Fatalf("spans[%d].Frame = %d, want %d", i, s.Frame, want)
		}
	}
}

func TestJournalStampingDoesNotAllocate(t *testing.T) {
	j := NewJournal(testEpoch, 256)
	j.Cross = &obs.Histogram{}
	j.Local = &obs.Histogram{}
	j.Net = &obs.Histogram{}
	j.Skew = &obs.Histogram{}
	var b Batch
	b.Reset(j)
	frame := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now := at(time.Duration(frame) * 16 * time.Millisecond)
		b.Pressed(frame+6, now)
		b.SendRange(frame, frame+6, now)
		b.Recv(frame, now, int64(frame)*1000)
		b.RemoteExec(frame, int64(frame+1)*1000, 6)
		b.Executed(frame, now)
		b.Rendered(frame, now)
		b.Flush()
		j.Retransmit(now)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("journal stamping allocates %.1f/op, want 0", allocs)
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	var b Batch
	b.Reset(j)
	b.Pressed(1, at(0))
	b.SendRange(0, 5, at(0))
	b.Recv(1, at(0), 5)
	b.RemoteExec(1, 5, 6)
	b.Executed(1, at(0))
	b.Rendered(1, at(0))
	b.Flush()
	j.Retransmit(at(0))
	if j.Spans() != nil || b.n != 0 {
		t.Fatal("nil journal leaked state")
	}
}

// echo feeds e one exchange of round trip rtt µs whose peer clock reads off
// µs behind the local one (so off is the offset to estimate), sent at t1.
func echo(e *OffsetEstimator, t1 uint32, rtt, off int32) {
	t3 := t1 + uint32(rtt/2) - uint32(off)
	e.AddEcho(t1, 0, t3, t1+uint32(rtt))
}

// wantOffset fails unless e's estimate is off.
func wantOffset(t *testing.T, e *OffsetEstimator, off int64) {
	t.Helper()
	if got, ok := e.OffsetMicros(); !ok || got != off {
		t.Fatalf("offset = %d (ok=%v), want %d", got, ok, off)
	}
}

// wantMinRTT checks that the estimate rests on a sample of round trip rtt µs:
// a sample one µs slower with another offset does not replace it, one a µs
// faster does.
func wantMinRTT(t *testing.T, e *OffsetEstimator, t1 uint32, rtt int32) {
	t.Helper()
	before, _ := e.OffsetMicros()
	echo(e, t1, rtt+1, 777)
	wantOffset(t, e, before)
	echo(e, t1, rtt-1, 777)
	wantOffset(t, e, 777)
}

func TestOffsetEstimatorSymmetricPath(t *testing.T) {
	var e OffsetEstimator
	if _, ok := e.OffsetMicros(); ok {
		t.Fatal("estimator ready before any sample")
	}
	// Peer clock runs 250000 us ahead of ours; path delay 10000 us each way,
	// peer holds the echo 3000 us.
	const peerAhead = 250000
	t1 := uint32(1000000)
	t2 := t1 + 10000 + peerAhead // peer receive, peer clock
	hold := uint32(3000)
	t3 := t2 + hold
	t4 := t1 + 10000 + hold + 10000
	e.AddEcho(t1, hold, t3, t4)
	off, ok := e.OffsetMicros()
	if !ok {
		t.Fatal("no estimate after sample")
	}
	if off != -peerAhead {
		t.Fatalf("offset = %d, want %d", off, -peerAhead)
	}
	// Mapping a fresh peer stamp through the offset must recover the local
	// instant: peer stamps t5 (peer clock) at local instant L.
	localNowNs := int64(5 * time.Second)
	nowMicros := uint32(5000000)
	peerStamp := uint32(4900000 + peerAhead) // peer's clock at local 4.9s
	got := MapRemoteMicros(peerStamp, off, nowMicros, localNowNs)
	if want := int64(4900000) * 1000; got != want {
		t.Fatalf("mapped remote stamp = %d, want %d", got, want)
	}
	wantMinRTT(t, &e, 2000000, 20000)
}

func TestOffsetEstimatorPrefersMinRTT(t *testing.T) {
	var e OffsetEstimator
	// A slow, queue-skewed sample first: 100ms out, 20ms back biases the
	// midpoint by 40ms.
	e.AddEcho(0, 0, 100000, 120000)
	biased, _ := e.OffsetMicros()
	// Then a fast symmetric sample with the true offset 0.
	e.AddEcho(200000, 0, 205000, 210000)
	off, _ := e.OffsetMicros()
	if off == biased && biased != 0 {
		t.Fatalf("estimator kept the slow biased sample: %d", off)
	}
	if off != 0 {
		t.Fatalf("offset = %d, want 0 from the min-RTT sample", off)
	}
	if e.n != 2 {
		t.Fatalf("samples = %d, want 2", e.n)
	}
	wantMinRTT(t, &e, 300000, 10000)
}

func TestOffsetEstimatorWrapSafety(t *testing.T) {
	var e OffsetEstimator
	// Stamps straddling the 2^32 microsecond wrap (~71.6 minutes).
	t1 := uint32(0xFFFFF000)
	hold := uint32(100)
	t3 := t1 + 5000 + hold // wraps
	t4 := t1 + 10000 + hold
	e.AddEcho(t1, hold, t3, t4)
	off, ok := e.OffsetMicros()
	if !ok {
		t.Fatal("wrap-straddling sample rejected")
	}
	if off != 0 {
		t.Fatalf("offset across wrap = %d, want 0", off)
	}
	wantMinRTT(t, &e, t1, 10000)
}

func TestOffsetEstimatorRejectsNonPositiveRTT(t *testing.T) {
	var e OffsetEstimator
	e.AddEcho(1000, 500, 1200, 1400) // rtt = 400-500 < 0
	if _, ok := e.OffsetMicros(); ok {
		t.Fatal("non-positive RTT sample accepted")
	}
}

func TestNilOffsetEstimator(t *testing.T) {
	var e *OffsetEstimator
	e.AddEcho(1, 2, 3, 4)
	if _, ok := e.OffsetMicros(); ok {
		t.Fatal("nil estimator produced an offset")
	}
}

func TestSpanWireRoundTrip(t *testing.T) {
	spans := []Span{
		{Frame: 7, Pressed: 1, Encoded: 2, Sent: 3, Executed: 4, Rendered: 5,
			Recv: 6, Merged: 7, RemoteSend: 8, RemoteExec: 9, RemotePressed: 10, Retransmits: 2},
		{Frame: 8},
		{Frame: -3, Executed: -1}, // hostile but representable values survive
	}
	blob := AppendSpans(nil, spans)
	got, err := DecodeSpans(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(spans) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], spans[i])
		}
	}
	// Empty set round-trips too.
	if got, err := DecodeSpans(AppendSpans(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %d spans", err, len(got))
	}
}

func TestSpanWireRejectsDamage(t *testing.T) {
	blob := AppendSpans(nil, []Span{{Frame: 1}})
	cases := map[string][]byte{
		"short":       blob[:5],
		"bad magic":   append([]byte("NOPE"), blob[4:]...),
		"bad version": append(append([]byte{}, blob[:4]...), append([]byte{9, 9}, blob[6:]...)...),
		"truncated":   blob[:len(blob)-1],
		"surplus":     append(append([]byte{}, blob...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeSpans(b); err == nil {
			t.Errorf("%s: decode accepted damaged blob", name)
		}
	}
	// Count claiming more records than the blob holds must not over-read.
	big := append([]byte{}, blob...)
	big[6] = 0xFF
	big[7] = 0xFF
	if _, err := DecodeSpans(big); err == nil {
		t.Error("oversized count accepted")
	}
}
