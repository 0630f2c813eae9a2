package span

import (
	"encoding/binary"
	"fmt"

	"retrolock/internal/container"
)

// Span export encoding ("RKSP"): the serialized form a journal snapshot takes
// inside a flight bundle's spans section (and anywhere else spans travel).
//
//	offset  size  field
//	0       4     magic "RKSP"
//	4       2     version (little-endian, currently 1)
//	6       4     span count n
//	10      96*n  span records
//
// Each record is the Span struct's twelve int64 fields in declaration order,
// little-endian. The layout is versioned, length-checked to the byte, and
// round-trips exactly (DecodeSpans ∘ AppendSpans = identity) — FuzzDecodeSpan
// pins both properties.

const (
	spanMagic = "RKSP"
	// WireVersion is the current encoding version.
	WireVersion = 1
	// RecordSize is one serialized Span: 12 little-endian int64 fields.
	RecordSize = 96
	headerSize = 10
)

// AppendSpans appends the RKSP encoding of spans to dst and returns the
// extended slice.
func AppendSpans(dst []byte, spans []Span) []byte {
	dst = container.Begin(dst, spanMagic, WireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(spans)))
	for i := range spans {
		s := &spans[i]
		for _, v := range [...]int64{
			s.Frame,
			s.Pressed, s.Encoded, s.Sent, s.Executed, s.Rendered,
			s.Recv, s.Merged, s.RemoteSend, s.RemoteExec, s.RemotePressed,
			s.Retransmits,
		} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	}
	return dst
}

// DecodeSpans parses an RKSP blob. The length must match the declared count
// exactly; any surplus, deficit, bad magic or unknown version is an error.
func DecodeSpans(b []byte) ([]Span, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("span: blob too short (%d bytes)", len(b))
	}
	if string(b[:4]) != spanMagic {
		return nil, fmt.Errorf("span: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != WireVersion {
		return nil, fmt.Errorf("span: unsupported version %d", v)
	}
	r := container.NewReader(b[6:])
	out := make([]Span, r.Count(RecordSize))
	if r.Err() != nil || r.Len() != len(out)*RecordSize {
		return nil, fmt.Errorf("span: length %d does not match the declared record count", len(b))
	}
	f := func() int64 { return int64(r.U64()) }
	for i := range out {
		s := &out[i]
		s.Frame = f()
		s.Pressed, s.Encoded, s.Sent, s.Executed, s.Rendered = f(), f(), f(), f(), f()
		s.Recv, s.Merged, s.RemoteSend, s.RemoteExec, s.RemotePressed = f(), f(), f(), f(), f()
		s.Retransmits = f()
	}
	return out, nil
}
