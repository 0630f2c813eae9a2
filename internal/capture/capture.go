// Package capture is retrolock's pcap analogue: a versioned container for
// session datagram traffic (the RKCP format) plus a bounded, steady-state
// zero-allocation Recorder that transport connections, the relay daemon and
// the traffic generator all tap into.
//
// A capture stores, per datagram, the instant it crossed the tap, the
// direction (send or receive, from the tap owner's point of view), the site
// it belongs to and the raw payload — plus a metadata section describing the
// session the traffic came from: the named netem profile (or raw link
// configs) and the nominal input cadence. That is exactly what the traffic
// generator (internal/trafficgen) needs to replay a recorded session's load
// shape against a live relayd, the capture→replay loop CGReplay argues for.
//
// RKCP is a schema over internal/container, which owns the framing, the
// section walk and the totality contract.
package capture

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"retrolock/internal/container"
	"retrolock/internal/netem"
)

// RKCP is a container frame whose body is tagged sections.
const (
	captureMagic = "RKCP"
	// Version is the current RKCP container version.
	Version = 1
)

// Section tags.
const (
	secMeta = 1 + iota
	secRecords
)

// recHeaderSize is the fixed prefix of one encoded record: at u64 (ns since
// the capture epoch), dir u8, site u8, length u32.
const recHeaderSize = 8 + 1 + 1 + 4

// Dir is a datagram's direction from the tap owner's point of view.
type Dir uint8

const (
	// DirSend marks a datagram the tap owner transmitted.
	DirSend Dir = 0
	// DirRecv marks a datagram the tap owner received.
	DirRecv Dir = 1
)

// String names the direction for reports.
func (d Dir) String() string {
	if d == DirSend {
		return "send"
	}
	return "recv"
}

// Meta describes the session whose traffic a capture holds. Everything is
// optional except Version; the generator only needs Profile/InputHz to
// reconstruct a load model, and falls back to the record timings themselves.
type Meta struct {
	Version int `json:"version"`
	// Epoch is the capture's time origin in Unix nanoseconds; every
	// record's At is an offset from it.
	Epoch int64 `json:"epoch_unix_ns"`
	// Game names the ROM the captured session ran, if known.
	Game string `json:"game,omitempty"`
	// Profile is the named netem profile the session's links used
	// (see netem.Profile); empty when the links were hand-configured.
	Profile string `json:"profile,omitempty"`
	// InputHz is the session's nominal input cadence in sends per second
	// per site (0: unknown).
	InputHz float64 `json:"input_hz,omitempty"`
	// Fwd/Rev are the raw per-direction link configurations, when the
	// recorder knew them (netem.Config is plain data and JSON-stable).
	Fwd *netem.Config `json:"fwd,omitempty"`
	Rev *netem.Config `json:"rev,omitempty"`
	// Session identifies the relayed session the traffic belongs to (the
	// relay token in hex) when the tap is per-session, e.g. an
	// anomaly-triggered relay bundle; empty for whole-tap captures.
	Session string `json:"session,omitempty"`
	// Verdict is the health verdict that triggered an anomaly capture
	// ("degraded", "infeasible"); empty for captures taken on demand.
	Verdict string `json:"verdict,omitempty"`
	// Notes is free-form provenance ("harness run seed 7", "relayd tap").
	Notes string `json:"notes,omitempty"`
	// Dropped is how many datagrams the recorder rejected after its budget
	// filled — a capture with Dropped > 0 is a truncated view, not a lie.
	Dropped int64 `json:"dropped,omitempty"`
}

// Record is one captured datagram.
type Record struct {
	// At is the tap instant as an offset from Meta.Epoch.
	At time.Duration
	// Dir is the datagram's direction at the tap.
	Dir Dir
	// Site is the session site the datagram belongs to (sender site for
	// DirSend, receiving site for DirRecv; relay taps use the site byte of
	// the relay header).
	Site uint8
	// Payload is the raw datagram, relay prefix included when the tap sits
	// below the relay header.
	Payload []byte
}

// Capture is one decoded RKCP file.
type Capture struct {
	Meta    Meta
	Records []Record
}

// Encode serializes the capture.
func (c *Capture) Encode() []byte {
	meta, err := json.Marshal(c.Meta)
	if err != nil {
		meta = []byte("{}") // a Meta of plain fields cannot fail
	}
	size := 16 + len(meta) + 4 + len(c.Records)*recHeaderSize
	for i := range c.Records {
		size += len(c.Records[i].Payload)
	}
	buf := make([]byte, 0, size+64)
	buf = container.Begin(buf, captureMagic, Version)
	buf = container.AppendSection(buf, secMeta, meta)
	if len(c.Records) > 0 {
		p := make([]byte, 0, 4+len(c.Records)*(recHeaderSize+64))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(c.Records)))
		for i := range c.Records {
			r := &c.Records[i]
			p = binary.LittleEndian.AppendUint64(p, uint64(r.At))
			p = append(p, byte(r.Dir), r.Site)
			p = binary.LittleEndian.AppendUint32(p, uint32(len(r.Payload)))
			p = append(p, r.Payload...)
		}
		buf = container.AppendSection(buf, secRecords, p)
	}
	return container.Seal(buf)
}

// Decode parses a serialized capture. It is total: corrupt or truncated
// input yields an error, never a panic.
func Decode(data []byte) (*Capture, error) {
	body, err := container.Open(data, captureMagic, Version)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	c := &Capture{}
	sawMeta := false
	err = container.Sections(body, func(tag byte, p []byte) (err error) {
		switch tag {
		case secMeta:
			err = json.Unmarshal(p, &c.Meta)
			sawMeta = true
		case secRecords:
			c.Records, err = decodeRecords(container.NewReader(p))
		default:
			// Unknown section from a newer recorder: skip.
		}
		if err != nil {
			return fmt.Errorf("section %d: %w", tag, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	if !sawMeta {
		return nil, fmt.Errorf("capture: no meta section")
	}
	return c, nil
}

func decodeRecords(r *container.Reader) ([]Record, error) {
	out := make([]Record, r.Count(recHeaderSize))
	for i := range out {
		out[i] = Record{At: time.Duration(r.U64()), Dir: Dir(r.U8()), Site: r.U8()}
		out[i].Payload = append([]byte(nil), r.Bytes(int(r.U32()))...)
		if d := out[i].Dir; d != DirSend && d != DirRecv {
			return nil, fmt.Errorf("record %d: bad direction %d", i, d)
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after records", r.Len())
	}
	return out, nil
}
