// Package flight is the black-box flight recorder and desync triage layer:
// an always-on, bounded, allocation-conscious recorder attached to every
// core.Session (a ring of recent merged inputs and per-frame state hashes,
// periodic savestates, the peer's hash digests, the live trace ring and a
// metrics snapshot) that, on an incident — replica divergence, liveness
// stall, frame-loop panic, or an operator request — writes one self-contained
// versioned bundle; plus the offline analysis (Analyze) that deterministically
// replays a bundle from its nearest checkpoint to bisect the exact first
// divergent frame and diff the expected machine state against what the
// session actually held.
//
// The paper's determinism argument (§2, §5) says divergence cannot happen;
// the flight recorder is the instrument for when it does anyway. A desync at
// production scale must be diagnosable from a single artifact, not
// reproducible by luck.
package flight

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"retrolock/internal/container"
	"retrolock/internal/span"
)

// RKFB is a container frame (see internal/container) whose body is tagged
// sections. Unknown tags are skipped on decode, so newer recorders stay
// readable by older triage builds.
const (
	bundleMagic   = "RKFB"
	BundleVersion = 1
)

// Section tags.
const (
	secManifest = 1 + iota
	secROM
	secFrames
	secSnapshots
	secFinal
	secRemote
	secTrace
	secMetrics
	secSpans // input-journey span export (span.AppendSpans blob); added in PR 5
)

// frameRecSize is the encoded size of one FrameRecord: frame u64, input u16,
// wait u64, hash u64.
const frameRecSize = 8 + 2 + 8 + 8

// remoteRecSize is the encoded size of one RemoteHash: site u32, frame u64,
// hash u64.
const remoteRecSize = 4 + 8 + 8

// snapHeaderSize is the fixed prefix of one encoded StateSnapshot: frame u64,
// state length u32.
const snapHeaderSize = 8 + 4

// FrameRecord is one executed frame as the recorder saw it.
type FrameRecord struct {
	// Frame is the executed frame number.
	Frame int64
	// Input is the merged input word fed to the machine.
	Input uint16
	// Wait is how long SyncInput blocked for this frame (0: it did not).
	Wait time.Duration
	// Hash is the machine state hash after the transition — per-frame, so
	// two bundles bisect the first divergent frame by direct comparison.
	Hash uint64
}

// StateSnapshot is a machine savestate captured after executing Frame.
type StateSnapshot struct {
	Frame int64
	State []byte
}

// RemoteHash is one peer state digest as it arrived on the wire.
type RemoteHash struct {
	Site  int
	Frame int64
	Hash  uint64
}

// Manifest identifies the incident and the session it happened in.
type Manifest struct {
	Version int    `json:"version"`
	Site    int    `json:"site"`
	Kind    string `json:"kind"`
	// KindCode is the core.IncidentKind numeric value.
	KindCode int `json:"kind_code"`
	// Frame is the next frame to execute at incident time.
	Frame int64  `json:"frame"`
	Cause string `json:"cause,omitempty"`
	// Game names the ROM; ROMHash is FNV-1a/64 of the embedded image.
	Game    string `json:"game,omitempty"`
	ROMHash uint64 `json:"rom_hash,omitempty"`
	// Session configuration needed to interpret the record.
	NumPlayers   int `json:"num_players"`
	BufFrame     int `json:"buf_frame"`
	CFPS         int `json:"cfps"`
	HashInterval int `json:"hash_interval"`
	StartFrame   int `json:"start_frame"`
}

// Bundle is one decoded incident bundle — everything triage needs in one
// self-contained file.
type Bundle struct {
	Manifest Manifest
	// ROM is the encoded "RK32" cartridge image the session ran, embedded
	// so a bundle replays without access to the original ROM file.
	ROM []byte
	// Frames is the recorder's input/hash window, oldest first.
	Frames []FrameRecord
	// Snapshots are the periodic savestates, oldest first.
	Snapshots []StateSnapshot
	// Final is the machine state captured at incident time (nil when the
	// machine supports no savestates).
	Final *StateSnapshot
	// RemoteHashes is the window of peer digests, oldest first.
	RemoteHashes []RemoteHash
	// Trace is the obs tracer ring as JSONL (one event per line).
	Trace []byte
	// Metrics is the registry snapshot at incident time, as JSON.
	Metrics []byte
	// Spans is the input-journey journal window at incident time, oldest
	// first — per-frame press/send/receive/execute instants, so triage can
	// show what input latency looked like around the divergence. Bundles
	// written before PR 5 (and readers older than it) simply omit the
	// section.
	Spans []span.Span
}

// Encode serializes the bundle.
func (b *Bundle) Encode() []byte {
	manifest, err := json.Marshal(b.Manifest)
	if err != nil {
		manifest = []byte("{}") // a Manifest of plain fields cannot fail
	}
	size := 16 + len(manifest) + len(b.ROM) + len(b.Trace) + len(b.Metrics) +
		len(b.Frames)*frameRecSize + len(b.RemoteHashes)*remoteRecSize +
		len(b.Spans)*span.RecordSize + 16
	for _, s := range b.Snapshots {
		size += 12 + len(s.State)
	}
	if b.Final != nil {
		size += 12 + len(b.Final.State)
	}
	buf := make([]byte, 0, size+64)
	buf = container.Begin(buf, bundleMagic, BundleVersion)
	buf = container.AppendSection(buf, secManifest, manifest)
	if len(b.ROM) > 0 {
		buf = container.AppendSection(buf, secROM, b.ROM)
	}
	if len(b.Frames) > 0 {
		p := make([]byte, 0, 4+len(b.Frames)*frameRecSize)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(b.Frames)))
		for _, f := range b.Frames {
			p = binary.LittleEndian.AppendUint64(p, uint64(f.Frame))
			p = binary.LittleEndian.AppendUint16(p, f.Input)
			p = binary.LittleEndian.AppendUint64(p, uint64(f.Wait))
			p = binary.LittleEndian.AppendUint64(p, f.Hash)
		}
		buf = container.AppendSection(buf, secFrames, p)
	}
	if len(b.Snapshots) > 0 {
		var p []byte
		p = binary.LittleEndian.AppendUint32(p, uint32(len(b.Snapshots)))
		for _, s := range b.Snapshots {
			p = appendSnapshot(p, s)
		}
		buf = container.AppendSection(buf, secSnapshots, p)
	}
	if b.Final != nil {
		buf = container.AppendSection(buf, secFinal, appendSnapshot(nil, *b.Final))
	}
	if len(b.RemoteHashes) > 0 {
		p := make([]byte, 0, 4+len(b.RemoteHashes)*remoteRecSize)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(b.RemoteHashes)))
		for _, r := range b.RemoteHashes {
			p = binary.LittleEndian.AppendUint32(p, uint32(int32(r.Site)))
			p = binary.LittleEndian.AppendUint64(p, uint64(r.Frame))
			p = binary.LittleEndian.AppendUint64(p, r.Hash)
		}
		buf = container.AppendSection(buf, secRemote, p)
	}
	if len(b.Trace) > 0 {
		buf = container.AppendSection(buf, secTrace, b.Trace)
	}
	if len(b.Metrics) > 0 {
		buf = container.AppendSection(buf, secMetrics, b.Metrics)
	}
	if len(b.Spans) > 0 {
		buf = container.AppendSection(buf, secSpans, span.AppendSpans(nil, b.Spans))
	}
	return container.Seal(buf)
}

func appendSnapshot(p []byte, s StateSnapshot) []byte {
	p = binary.LittleEndian.AppendUint64(p, uint64(s.Frame))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.State)))
	return append(p, s.State...)
}

func decodeSnapshot(r *container.Reader) StateSnapshot {
	return StateSnapshot{Frame: int64(r.U64()), State: append([]byte(nil), r.Bytes(int(r.U32()))...)}
}

// Decode parses a serialized bundle. It is total: corrupt or truncated input
// yields an error, never a panic, so triage survives damaged black boxes.
func Decode(data []byte) (*Bundle, error) {
	body, err := container.Open(data, bundleMagic, BundleVersion)
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	b := &Bundle{}
	sawManifest := false
	err = container.Sections(body, func(tag byte, p []byte) (err error) {
		r := container.NewReader(p)
		switch tag {
		case secManifest:
			err = json.Unmarshal(p, &b.Manifest)
			sawManifest = true
		case secROM:
			b.ROM = append([]byte(nil), p...)
		case secFrames:
			b.Frames = make([]FrameRecord, r.Count(frameRecSize))
			for i := range b.Frames {
				b.Frames[i] = FrameRecord{
					Frame: int64(r.U64()),
					Input: r.U16(),
					Wait:  time.Duration(r.U64()),
					Hash:  r.U64(),
				}
			}
		case secSnapshots:
			b.Snapshots = make([]StateSnapshot, r.Count(snapHeaderSize))
			for i := range b.Snapshots {
				b.Snapshots[i] = decodeSnapshot(r)
			}
		case secFinal:
			s := decodeSnapshot(r)
			if r.Len() != 0 {
				err = fmt.Errorf("%d trailing bytes after final snapshot", r.Len())
			}
			b.Final = &s
		case secRemote:
			b.RemoteHashes = make([]RemoteHash, r.Count(remoteRecSize))
			for i := range b.RemoteHashes {
				b.RemoteHashes[i] = RemoteHash{
					Site:  int(int32(r.U32())),
					Frame: int64(r.U64()),
					Hash:  r.U64(),
				}
			}
		case secTrace:
			b.Trace = append([]byte(nil), p...)
		case secMetrics:
			b.Metrics = append([]byte(nil), p...)
		case secSpans:
			b.Spans, err = span.DecodeSpans(p)
		default:
			// Unknown section from a newer recorder: skip.
		}
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return fmt.Errorf("section %d: %w", tag, err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	if !sawManifest {
		return nil, fmt.Errorf("flight: bundle has no manifest")
	}
	return b, nil
}

// ROMHash is the FNV-1a/64 digest used for Manifest.ROMHash.
func ROMHash(image []byte) uint64 {
	h := fnv.New64a()
	h.Write(image)
	return h.Sum64()
}
