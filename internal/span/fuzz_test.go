package span

import (
	"bytes"
	"testing"
	"time"
)

// sessionSeedBlob encodes the journal of a synthetic but realistically
// stamped session — the shape real flight bundles embed — so the fuzzer
// starts from valid wire bytes, not noise.
func sessionSeedBlob() []byte {
	epoch := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	j := NewJournal(epoch, 128)
	var b Batch
	b.Reset(j)
	const lag = 6
	for f := int64(0); f < 200; f++ {
		now := epoch.Add(time.Duration(f) * 16670 * time.Microsecond)
		b.Pressed(f+lag, now)
		b.SendRange(f, f+lag, now.Add(50*time.Microsecond))
		b.Recv(f, now.Add(2*time.Millisecond), int64(f)*16670000+1)
		b.RemoteExec(f, int64(f)*16670000+500000, lag)
		b.Executed(f, now.Add(3*time.Millisecond))
		b.Rendered(f, now.Add(5*time.Millisecond))
		b.Flush()
		if f%17 == 0 {
			j.Retransmit(now.Add(time.Millisecond))
		}
	}
	return AppendSpans(nil, j.Spans())
}

// FuzzDecodeSpan pins two properties of the RKSP encoding: DecodeSpans never
// panics on arbitrary bytes, and whatever it accepts re-encodes to the exact
// input (decode ∘ encode ∘ decode identity).
func FuzzDecodeSpan(f *testing.F) {
	f.Add(sessionSeedBlob())
	f.Add(AppendSpans(nil, nil))
	f.Add(AppendSpans(nil, []Span{{Frame: 42, Pressed: 1, Executed: 2, Retransmits: 3}}))
	f.Add([]byte(spanMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeSpans(data)
		if err != nil {
			return
		}
		again := AppendSpans(nil, spans)
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, data)
		}
		back, err := DecodeSpans(again)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		for i := range spans {
			if back[i] != spans[i] {
				t.Fatalf("span %d not identical after round trip", i)
			}
		}
	})
}
