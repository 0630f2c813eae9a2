package container_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/flight"
	"retrolock/internal/netem"
	"retrolock/internal/replay"
	"retrolock/internal/rom"
	"retrolock/internal/span"
)

// The four sealed containers are on-disk and on-wire formats: a refactor of
// their codecs must change neither a byte of what Encode writes nor the set
// of inputs Decode accepts. This file pins both, per format, using only each
// package's exported Encode/Decode and its own FNV arithmetic — so it runs
// unmodified against any commit that has the four packages.

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// seal appends the FNV-1a/32 trailer a valid container ends with.
func seal(body []byte) []byte {
	h := fnv.New32a()
	h.Write(body)
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), h.Sum32())
}

// rle renders an accept/reject vector as runs: "r6 A1 r12" is six rejected
// inputs, one accepted, twelve rejected.
func rle(accepted []bool) string {
	var sb strings.Builder
	for i := 0; i < len(accepted); {
		j := i
		for j < len(accepted) && accepted[j] == accepted[i] {
			j++
		}
		c := 'r'
		if accepted[i] {
			c = 'A'
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%c%d", c, j-i)
		i = j
	}
	return sb.String()
}

// matrix damages enc every way the table names and records which results
// Decode accepts:
//
//	cut         enc[:n] for every n in [0, len(enc)]
//	flip        enc with bit 7 of byte i inverted, for every i
//	cut+seal    body[:n] with a fresh valid trailer, for every n in [0, len(body)]
//	flip7+seal  body with bit 7 of byte i inverted and a fresh valid trailer
//	flip0+seal  the same with bit 0
//
// The unsealed rows exercise the trailer; the resealed rows get past it, so
// they exercise every length and count check behind it — bit 7 turns a
// length huge, bit 0 moves it off by one.
func matrix(enc []byte, decode func([]byte) error) string {
	body := enc[:len(enc)-4]
	flipped := func(p []byte, i int, bit byte) []byte {
		q := append([]byte(nil), p...)
		q[i] ^= bit
		return q
	}
	rows := []struct {
		name  string
		n     int
		input func(i int) []byte
	}{
		{"cut", len(enc) + 1, func(i int) []byte { return enc[:i] }},
		{"flip", len(enc), func(i int) []byte { return flipped(enc, i, 0x80) }},
		{"cut+seal", len(body) + 1, func(i int) []byte { return seal(body[:i]) }},
		{"flip7+seal", len(body), func(i int) []byte { return seal(flipped(body, i, 0x80)) }},
		{"flip0+seal", len(body), func(i int) []byte { return seal(flipped(body, i, 0x01)) }},
	}
	var sb strings.Builder
	for _, row := range rows {
		acc := make([]bool, row.n)
		for i := range acc {
			acc[i] = decode(row.input(i)) == nil
		}
		fmt.Fprintf(&sb, "%s: %s\n", row.name, rle(acc))
	}
	return sb.String()
}

func goldenROM() []byte {
	return (&rom.ROM{
		Title: "Golden", Entry: 0x0040, LoadAddr: 0x0100, Seed: 0xC0FFEE,
		Code: []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4},
	}).Encode()
}

func goldenLog() []byte {
	return (&replay.Log{
		Game: "pong", CheckpointEvery: 2,
		Inputs:      []uint16{0x0001, 0x8000, 0x00FF, 0x0100, 0xFFFF},
		Checkpoints: []uint64{0x1122334455667788, 0x99AABBCCDDEEFF00},
		Final:       0x0123456789ABCDEF,
	}).Encode()
}

// goldenBundle populates every RKFB section.
func goldenBundle() []byte {
	return (&flight.Bundle{
		Manifest: flight.Manifest{
			Version: flight.BundleVersion, Site: 1, Kind: "desync", KindCode: 1, Frame: 10,
			Cause: "golden", Game: "pong", ROMHash: 0xFEEDFACE,
			NumPlayers: 2, BufFrame: 6, CFPS: 60, HashInterval: 1, StartFrame: 0,
		},
		ROM: goldenROM(),
		Frames: []flight.FrameRecord{
			{Frame: 8, Input: 0x0003, Wait: 0, Hash: 0xA1},
			{Frame: 9, Input: 0x8001, Wait: 3 * time.Millisecond, Hash: 0xA2},
		},
		Snapshots: []flight.StateSnapshot{
			{Frame: 4, State: []byte{4, 4, 4, 4}},
			{Frame: 8, State: []byte{8}},
		},
		Final:        &flight.StateSnapshot{Frame: 9, State: []byte{9, 9}},
		RemoteHashes: []flight.RemoteHash{{Site: 0, Frame: 8, Hash: 0xA1}, {Site: -1, Frame: 9, Hash: 0xB2}},
		Trace:        []byte("{\"ev\":\"incident\"}\n"),
		Metrics:      []byte(`{"retrolock_desync_total":1}`),
		Spans: []span.Span{
			{Frame: 8, Pressed: 1, Encoded: 2, Sent: 3, Executed: 4, Rendered: 5,
				Recv: 6, Merged: 7, RemoteSend: 8, RemoteExec: 9, RemotePressed: 10, Retransmits: 11},
		},
	}).Encode()
}

func goldenCapture() []byte {
	fwd := netem.Config{Delay: 20 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.01, Seed: 7}
	return (&capture.Capture{
		Meta: capture.Meta{
			Version: capture.Version, Epoch: 1245628800000000000, Game: "pong", Profile: "wifi",
			InputHz: 60, Fwd: &fwd, Session: "00c0ffee", Verdict: "degraded", Notes: "golden", Dropped: 3,
		},
		Records: []capture.Record{
			{At: 0, Dir: capture.DirSend, Site: 0, Payload: []byte{1, 2, 3}},
			{At: 1500 * time.Microsecond, Dir: capture.DirRecv, Site: 1, Payload: nil},
			{At: 20 * time.Millisecond, Dir: capture.DirSend, Site: 1, Payload: []byte("datagram")},
		},
	}).Encode()
}

// TestGoldenFormats pins, per format, the encoded bytes of one fixed value
// and which damaged inputs Decode rejects (see matrix).
func TestGoldenFormats(t *testing.T) {
	for _, tc := range []struct {
		format string
		enc    []byte
		decode func([]byte) error
		size   int
		digest uint64
		matrix string
	}{
		{"RK32", goldenROM(), func(b []byte) error { _, err := rom.Decode(b); return err },
			39, 0x66a31b633fef0a1, goldenROMMatrix},
		{"RKRP", goldenLog(), func(b []byte) error { _, err := replay.Decode(b); return err },
			62, 0x51ddc9120058f29b, goldenLogMatrix},
		{"RKFB", goldenBundle(), func(b []byte) error { _, err := flight.Decode(b); return err },
			583, 0x8014773bc091d445, goldenBundleMatrix},
		{"RKCP", goldenCapture(), func(b []byte) error { _, err := capture.Decode(b); return err },
			427, 0x9be628992f15ee96, goldenCaptureMatrix},
	} {
		t.Run(tc.format, func(t *testing.T) {
			if len(tc.enc) != tc.size || digest(tc.enc) != tc.digest {
				t.Errorf("encoded %d bytes digest %#x, pinned %d bytes digest %#x\n%x",
					len(tc.enc), digest(tc.enc), tc.size, tc.digest, tc.enc)
			}
			if got := matrix(tc.enc, tc.decode); got != tc.matrix {
				t.Errorf("accept/reject matrix moved\n got:\n%s\nwant:\n%s", got, tc.matrix)
			}
		})
	}
}

const (
	goldenROMMatrix = `cut: r39 A1
flip: r39
cut+seal: r35 A1
flip7+seal: r6 A10 r1 A6 r4 A8
flip0+seal: r6 A10 r1 A6 r4 A8
`
	goldenLogMatrix = `cut: r62 A1
flip: r62
cut+seal: r58 A1
flip7+seal: r8 A8 r4 A10 r4 A24
flip0+seal: r8 A8 r4 A10 r4 A24
`
	goldenBundleMatrix = `cut: r583 A1
flip: r583
cut+seal: r201 A1 r43 A1 r60 A1 r37 A1 r18 A1 r48 A1 r22 A1 r32 A1 r110 A1
flip7+seal: r13 A7 r5 A4 r5 A4 r3 A6 r3 A9 r5 A5 r6 A5 r3 A6 r3 A4 r3 A4 r3 A8 r14 A11 r5 A9 r5 A4 r6 A13 r5 A11 r4 A1 r4 A40 r8 A53 r8 A8 r4 A12 r4 A2 r4 A8 r4 A3 r8 A41 r4 A19 r4 A29 r14 A96
flip0+seal: r13 A7 r2 A1 r2 A4 r2 A1 r2 A4 r3 A6 r3 A9 r2 A1 r2 A5 r3 A1 r2 A5 r3 A6 r3 A4 r3 A4 r3 A8 r2 A10 r2 A11 r2 A1 r2 A9 r2 A1 r2 A4 r2 A2 r2 A13 r2 A1 r2 A11 r2 A1 r6 A40 r8 A52 r9 A8 r4 A13 r3 A1 r5 A8 r4 A3 r8 A40 r5 A18 r5 A29 r14 A96
`
	goldenCaptureMatrix = `cut: r427 A1
flip: r427
cut+seal: r361 A1 r61 A1
flip7+seal: r13 A7 r5 A13 r23 A4 r3 A4 r3 A7 r3 A4 r3 A8 r6 A3 r4 A5 r12 A6 r11 A9 r5 A4 r8 A9 r9 A9 r5 A7 r5 A9 r5 A7 r5 A7 r5 A12 r5 A4 r5 A4 r6 A7 r3 A8 r3 A7 r3 A8 r3 A5 r3 A6 r3 A7 r4 A1 r8 A8 r1 A1 r4 A11 r1 A1 r4 A8 r1 A1 r4 A8
flip0+seal: r13 A7 r2 A1 r2 A13 r3 A18 r2 A4 r3 A4 r3 A7 r3 A4 r3 A8 r2 A2 r2 A3 r4 A5 r2 A8 r2 A6 r2 A7 r2 A9 r2 A1 r2 A4 r2 A1 r1 A2 r2 A9 r9 A9 r2 A1 r2 A7 r2 A1 r2 A9 r2 A1 r2 A7 r2 A1 r2 A7 r2 A1 r2 A12 r2 A1 r2 A4 r2 A1 r2 A4 r2 A1 r3 A7 r3 A8 r3 A7 r3 A8 r3 A5 r3 A6 r3 A7 r2 A1 r1 A1 r8 A11 r3 A13 r4 A10 r4 A8
`
)
