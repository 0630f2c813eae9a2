package core

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeSync checks three invariants over arbitrary datagrams:
//
//  1. An accepted message's payload length exactly matches its frame range
//     (64-bit arithmetic: int32 wraparound in from/to must not smuggle a
//     mismatched length through) and never exceeds maxInputsPerMsg.
//  2. decodeSyncInto with an undersized scratch agrees bit-for-bit with the
//     allocating decode — the zero-alloc receive path is not a second,
//     subtly different parser.
//  3. Re-encoding an accepted message reproduces the raw datagram, so the
//     encoder and decoder describe the same wire format (including the
//     biased echoDelay field).
func FuzzDecodeSync(f *testing.F) {
	f.Add(encodeSync(nil, syncMsg{Sender: 1, Ack: 42, From: 10, To: 13,
		SendTime: 7, EchoTime: 9, EchoDelay: 3, HasEcho: true,
		Inputs: []uint16{1, 2, 3, 4}}))
	f.Add(encodeSync(nil, syncMsg{Sender: 0, Ack: -1, From: 5, To: 4})) // keepalive
	f.Add(encodeSync(nil, syncMsg{Sender: 2, Merged: true, From: 0, To: 0, Inputs: []uint16{0xFFFF}}))
	// Hostile shapes: int32-wrapping ranges with a small actual payload.
	overflow := encodeSync(nil, syncMsg{From: 0, To: 1, Inputs: []uint16{1, 2}})
	overflow[6], overflow[7], overflow[8], overflow[9] = 0x00, 0x00, 0x00, 0x80     // From = math.MinInt32
	overflow[10], overflow[11], overflow[12], overflow[13] = 0xFF, 0xFF, 0xFF, 0x7F // To = math.MaxInt32
	f.Add(overflow)
	f.Add([]byte{msgSync})
	f.Add([]byte{})
	// An exec time without an exec frame: the encoder writes the field either
	// way, so the decoder must keep it for the re-encode to match.
	f.Add(encodeSync(nil, syncMsg{Sender: 1, From: 1, To: 0, ExecTime: 0x30303030}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeSync(raw)
		if err != nil {
			return
		}
		want := int64(m.To) - int64(m.From) + 1
		if want < 0 {
			want = 0
		}
		if want > maxInputsPerMsg {
			t.Fatalf("accepted range [%d,%d]: %d inputs > maxInputsPerMsg", m.From, m.To, want)
		}
		if int64(len(m.Inputs)) != want {
			t.Fatalf("range [%d,%d] decoded %d inputs, want %d", m.From, m.To, len(m.Inputs), want)
		}
		if int64(m.To)-int64(m.From) > math.MaxInt32 {
			t.Fatalf("int32-wrapping range [%d,%d] accepted", m.From, m.To)
		}

		small, err := decodeSyncInto(raw, make([]uint16, 0, 1))
		if err != nil {
			t.Fatalf("decodeSyncInto rejected what decodeSync accepted: %v", err)
		}
		if small.Sender != m.Sender || small.Merged != m.Merged || small.Ack != m.Ack ||
			small.From != m.From || small.To != m.To || small.SendTime != m.SendTime ||
			small.EchoTime != m.EchoTime || small.EchoDelay != m.EchoDelay || small.HasEcho != m.HasEcho {
			t.Fatalf("decode-into header disagrees: %+v vs %+v", small, m)
		}
		if len(small.Inputs) != len(m.Inputs) {
			t.Fatalf("decode-into inputs %d vs %d", len(small.Inputs), len(m.Inputs))
		}
		for i := range m.Inputs {
			if small.Inputs[i] != m.Inputs[i] {
				t.Fatalf("decode-into input %d: %#x vs %#x", i, small.Inputs[i], m.Inputs[i])
			}
		}

		if re := encodeSync(nil, m); !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs from raw:\n  raw %x\n  re  %x", raw, re)
		}
	})
}

// FuzzDecodeSnapChunk: an accepted chunk re-encodes to the raw datagram, and
// its data length always matches the header's declared length.
func FuzzDecodeSnapChunk(f *testing.F) {
	f.Add(encodeSnapChunk(snapChunk{Sender: 3, Frame: 1000, Seq: 4, Total: 9,
		RawLen: 77, Data: []byte{1, 2, 3, 4, 5}}))
	f.Add(encodeSnapChunk(snapChunk{}))
	f.Add([]byte{msgSnapChunk, 0, 0})

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := decodeSnapChunk(raw)
		if err != nil {
			return
		}
		if len(c.Data) != len(raw)-snapHeaderLen {
			t.Fatalf("data length %d vs datagram payload %d", len(c.Data), len(raw)-snapHeaderLen)
		}
		if re := encodeSnapChunk(c); !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs from raw:\n  raw %x\n  re  %x", raw, re)
		}
	})
}

// FuzzDecodeHash: decodeHash never panics, and an accepted digest message
// re-encodes to the raw datagram, so a desync report names the sender,
// frame and hash that were sent.
func FuzzDecodeHash(f *testing.F) {
	f.Add(appendHash(nil, 1, 600, 0xdeadbeefcafef00d))
	f.Add(appendHash(nil, 0, -1, 0))
	f.Add(appendHash(nil, 255, math.MaxInt32, math.MaxUint64))
	f.Add([]byte{msgHash})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		sender, frame, hash, err := decodeHash(raw)
		if err != nil {
			return
		}
		if re := appendHash(nil, sender, frame, hash); !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs from raw:\n  raw %x\n  re  %x", raw, re)
		}
	})
}

// FuzzParseJoin: ParseJoin never panics, and it accepts a datagram exactly
// when it is at least two bytes long and starts with the join tag, naming
// the site in its second byte.
func FuzzParseJoin(f *testing.F) {
	f.Add([]byte{msgJoin, 2})
	f.Add([]byte{msgJoin, 255, 0})
	f.Add([]byte{msgJoin})
	f.Add([]byte{msgSync, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		site, ok := ParseJoin(raw)
		want := len(raw) >= 2 && raw[0] == msgJoin
		if ok != want {
			t.Fatalf("ParseJoin(%x) ok = %v, want %v", raw, ok, want)
		}
		if ok && site != int(raw[1]) {
			t.Fatalf("ParseJoin(%x) site = %d, want %d", raw, site, raw[1])
		}
	})
}
