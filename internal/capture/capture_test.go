package capture

import (
	"bytes"
	"testing"
	"time"

	"retrolock/internal/container"
	"retrolock/internal/netem"
)

func sampleCapture() *Capture {
	fwd, rev, _ := netem.Profile("wifi", 7)
	return &Capture{
		Meta: Meta{
			Version: Version,
			Epoch:   time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC).UnixNano(),
			Game:    "pong",
			Profile: "wifi",
			InputHz: 25,
			Fwd:     &fwd,
			Rev:     &rev,
			Notes:   "unit test",
		},
		Records: []Record{
			{At: 0, Dir: DirSend, Site: 0, Payload: []byte{1, 2, 3}},
			{At: 1500 * time.Microsecond, Dir: DirRecv, Site: 1, Payload: []byte{}},
			{At: 20 * time.Millisecond, Dir: DirSend, Site: 1, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
}

func TestCaptureRoundTrip(t *testing.T) {
	c := sampleCapture()
	enc := c.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Meta.Profile != "wifi" || dec.Meta.InputHz != 25 || dec.Meta.Game != "pong" {
		t.Errorf("meta round trip: got %+v", dec.Meta)
	}
	if dec.Meta.Fwd == nil || dec.Meta.Fwd.Delay != c.Meta.Fwd.Delay || dec.Meta.Fwd.Loss != c.Meta.Fwd.Loss {
		t.Errorf("fwd link config did not survive: %+v", dec.Meta.Fwd)
	}
	if len(dec.Records) != len(c.Records) {
		t.Fatalf("got %d records, want %d", len(dec.Records), len(c.Records))
	}
	for i, r := range dec.Records {
		w := c.Records[i]
		if r.At != w.At || r.Dir != w.Dir || r.Site != w.Site || !bytes.Equal(r.Payload, w.Payload) {
			t.Errorf("record %d: got %+v want %+v", i, r, w)
		}
	}
	// Re-encoding the decoded capture is bit-identical: the format has one
	// canonical serialization, which is what the golden-capture determinism
	// contract leans on.
	if !bytes.Equal(dec.Encode(), enc) {
		t.Error("decode∘encode is not the identity")
	}
	if first, last := dec.Records[0].At, dec.Records[len(dec.Records)-1].At; last-first != 20*time.Millisecond {
		t.Errorf("records span %v..%v, want 20ms", first, last)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sampleCapture().Encode()
	if _, err := Decode(nil); err == nil {
		t.Error("nil input decoded")
	}
	if _, err := Decode(enc[:5]); err == nil {
		t.Error("truncated header decoded")
	}
	for _, cut := range []int{len(enc) - 1, len(enc) / 2, 7} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded", cut)
		}
	}
	for _, flip := range []int{0, 4, 6, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[flip] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("bit flip at %d decoded", flip)
		}
	}
}

func TestDecodeSkipsUnknownSections(t *testing.T) {
	c := sampleCapture()
	enc := c.Encode()
	// Splice an unknown section (tag 0xEE) before the trailer and re-CRC.
	body := enc[:len(enc)-4]
	body = container.AppendSection(append([]byte(nil), body...), 0xEE, []byte("from the future"))
	h := fnvSum32(body)
	withCRC := append(body, byte(h), byte(h>>8), byte(h>>16), byte(h>>24))
	dec, err := Decode(withCRC)
	if err != nil {
		t.Fatalf("Decode with unknown section: %v", err)
	}
	if len(dec.Records) != len(c.Records) {
		t.Errorf("unknown section disturbed records: got %d want %d", len(dec.Records), len(c.Records))
	}
}

func TestDecodeRequiresMeta(t *testing.T) {
	var buf []byte
	buf = append(buf, captureMagic...)
	buf = append(buf, 1, 0) // version 1 LE
	h := fnvSum32(buf)
	buf = append(buf, byte(h), byte(h>>8), byte(h>>16), byte(h>>24))
	if _, err := Decode(buf); err == nil {
		t.Error("capture without meta decoded")
	}
}

func fnvSum32(p []byte) uint32 {
	const prime = 16777619
	s := uint32(2166136261)
	for _, b := range p {
		s ^= uint32(b)
		s *= prime
	}
	return s
}

func TestRecorderBoundsAndDropCounts(t *testing.T) {
	r := NewRecorder(4, 64)
	base := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	pay := bytes.Repeat([]byte{7}, 30)
	for i := 0; i < 10; i++ {
		r.Record(base.Add(time.Duration(i)*time.Millisecond), DirSend, i%2, pay)
	}
	// 64-byte arena holds two 30-byte payloads; the rest must be dropped.
	if got := r.Len(); got != 2 {
		t.Errorf("Len = %d, want 2 (arena-bounded)", got)
	}
	c := r.Snapshot(Meta{Notes: "bounds"})
	if got := c.Meta.Dropped; got != 8 {
		t.Errorf("Dropped = %d, want 8", got)
	}
	if got := r.Resident() - r.Len()*recSize; got > 64 {
		t.Errorf("payload bytes = %d exceed the 64-byte budget", got)
	}
	if c.Meta.Dropped != 8 || c.Meta.Epoch != base.UnixNano() {
		t.Errorf("snapshot meta: %+v", c.Meta)
	}
	if len(c.Records) != 2 || c.Records[1].At != time.Millisecond {
		t.Errorf("snapshot records: %+v", c.Records)
	}
	// The snapshot round-trips through the container.
	if _, err := Decode(c.Encode()); err != nil {
		t.Fatalf("snapshot encode/decode: %v", err)
	}

	// A nil recorder ignores everything.
	var nilRec *Recorder
	nilRec.Record(base, DirRecv, 0, pay)
	if nilRec.Len() != 0 || nilRec.Resident() != 0 || nilRec.Snapshot(Meta{}).Meta.Dropped != 0 {
		t.Error("nil recorder is not inert")
	}
	if c := nilRec.Snapshot(Meta{}); len(c.Records) != 0 {
		t.Error("nil recorder snapshot has records")
	}
}

func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	r := NewRecorder(1<<16, 1<<20)
	at := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	pay := make([]byte, 48)
	// Warm, then measure: recording into preallocated budgets is free, and
	// so is the drop path once a budget fills.
	for i := 0; i < 300; i++ {
		r.Record(at, DirSend, 0, pay)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		at = at.Add(time.Millisecond)
		r.Record(at, DirRecv, 1, pay)
	}); allocs != 0 {
		t.Errorf("Record allocates %.1f allocs/op in steady state, want 0", allocs)
	}
	full := NewRecorder(8, 128)
	for i := 0; i < 16; i++ {
		full.Record(at, DirSend, 0, pay)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		full.Record(at, DirSend, 0, pay)
	}); allocs != 0 {
		t.Errorf("overflow drop path allocates %.1f allocs/op, want 0", allocs)
	}
}
