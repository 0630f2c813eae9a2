package core

import (
	"encoding/binary"
	"fmt"
)

// Wire format. All messages are single datagrams, little endian, and begin
// with a one-byte type and the sender's site number.
//
// Sync message (the paper's sd, §3.1, plus RTT piggyback fields):
//
//	offset size  field
//	0      1     msgSync
//	1      1     sender site (low 7 bits) | merged flag (bit 7)
//	2      4     ack        — sd[0]: last frame received from the peer
//	6      4     from       — sd[1]: first frame of the payload
//	10     4     to         — sd[2]: last frame of the payload
//	14     4     sendTime   — sender clock, µs mod 2^32
//	18     4     echoTime   — freshest sendTime received from the peer
//	22     4     echoDelay  — 1 + µs the echo was held before sending;
//	              0 means "no echo yet". The +1 bias makes the have-echo
//	              state explicit on the wire: a message stamped exactly 0 µs
//	              after the epoch and echoed with zero hold is still a
//	              valid RTT sample, not a missing one.
//	26     4     execFrame  — 1 + the newest frame the sender began
//	              executing; 0 means "none yet" (same bias trick as
//	              echoDelay: frame 0 stays representable).
//	30     4     execTime   — sender clock at that frame's begin, µs mod
//	              2^32. Together with the receiver's clock-offset estimate
//	              this aligns the two sites' execution timelines, feeding
//	              the live cross-site input-latency and skew histograms
//	              (internal/span).
//	34     2n    inputs     — the sender's partial inputs for from..to
//
// The payload length is fully determined by from/to and must match the
// datagram size exactly; ranges longer than maxInputsPerMsg are rejected
// outright (a correct sender never produces them), so a hostile datagram
// can never make the receiver buffer more than one bounded payload.
//
// Handshake (session control, §3.2):
//
//	msgReady: sent by every non-master until the master's go arrives.
//	msgGo:    broadcast by the master once every peer reported ready.
//
// Late join (journal extension): msgJoin requests a snapshot; msgSnapChunk
// carries one piece of the savestate; msgSnapAck confirms reassembly.
const (
	msgSync      = byte(1)
	msgReady     = byte(2)
	msgGo        = byte(3)
	msgJoin      = byte(4)
	msgSnapChunk = byte(5)
	msgSnapAck   = byte(6)

	syncHeaderLen = 34

	// maxInputsPerMsg bounds a sync payload; longer backlogs are sent
	// across several paced messages.
	maxInputsPerMsg = 512
)

// MaxInputsPerMsg is the largest input range one sync message carries. It is
// exported for harnesses that assert memory bounds: the input ring's window
// never exceeds O(lag + MaxInputsPerMsg) regardless of session length.
const MaxInputsPerMsg = maxInputsPerMsg

// syncMsg is a decoded sync message. Merged marks a forwarded stream: the
// payload carries complete input words (every player's bits) rather than
// only the sender's partial inputs. Players send merged streams to observer
// sites, which lets a spectator or late joiner follow the game through a
// single connection to one player.
type syncMsg struct {
	Sender    int
	Merged    bool
	Ack       int32
	From      int32
	To        int32
	SendTime  uint32
	EchoTime  uint32
	EchoDelay uint32
	HasEcho   bool // EchoTime/EchoDelay carry a real echo (wire: echoDelay != 0)
	// ExecFrame/ExecTime report the newest frame the sender began executing
	// and the sender-clock instant of that begin (µs mod 2^32); HasExec is
	// false before the sender executed anything (wire: execFrame == 0).
	ExecFrame int32
	ExecTime  uint32
	HasExec   bool
	Inputs    []uint16
}

// encodeSync serializes m, reusing buf when it is large enough.
func encodeSync(buf []byte, m syncMsg) []byte {
	n := syncHeaderLen + 2*len(m.Inputs)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	buf[0] = msgSync
	buf[1] = byte(m.Sender) & 0x7F
	if m.Merged {
		buf[1] |= 0x80
	}
	binary.LittleEndian.PutUint32(buf[2:], uint32(m.Ack))
	binary.LittleEndian.PutUint32(buf[6:], uint32(m.From))
	binary.LittleEndian.PutUint32(buf[10:], uint32(m.To))
	binary.LittleEndian.PutUint32(buf[14:], m.SendTime)
	binary.LittleEndian.PutUint32(buf[18:], m.EchoTime)
	delay := uint32(0)
	if m.HasEcho {
		delay = m.EchoDelay + 1 // biased; see the wire-format comment
	}
	binary.LittleEndian.PutUint32(buf[22:], delay)
	exec := uint32(0)
	if m.HasExec {
		exec = uint32(m.ExecFrame) + 1 // biased; see the wire-format comment
	}
	binary.LittleEndian.PutUint32(buf[26:], exec)
	binary.LittleEndian.PutUint32(buf[30:], m.ExecTime)
	for i, in := range m.Inputs {
		binary.LittleEndian.PutUint16(buf[syncHeaderLen+2*i:], in)
	}
	return buf
}

// decodeSync parses a sync message.
func decodeSync(p []byte) (syncMsg, error) {
	return decodeSyncInto(p, nil)
}

// decodeSyncInto parses a sync message, decoding the input payload into
// scratch when its capacity suffices — the hot receive path hands in a
// per-connection scratch slice so steady-state decoding never allocates.
// The returned Inputs alias scratch; the caller owns both.
func decodeSyncInto(p []byte, scratch []uint16) (syncMsg, error) {
	if len(p) < syncHeaderLen || p[0] != msgSync {
		return syncMsg{}, fmt.Errorf("core: malformed sync message (%d bytes)", len(p))
	}
	m := syncMsg{
		Sender:   int(p[1] & 0x7F),
		Merged:   p[1]&0x80 != 0,
		Ack:      int32(binary.LittleEndian.Uint32(p[2:])),
		From:     int32(binary.LittleEndian.Uint32(p[6:])),
		To:       int32(binary.LittleEndian.Uint32(p[10:])),
		SendTime: binary.LittleEndian.Uint32(p[14:]),
		EchoTime: binary.LittleEndian.Uint32(p[18:]),
		ExecTime: binary.LittleEndian.Uint32(p[30:]),
	}
	if delay := binary.LittleEndian.Uint32(p[22:]); delay != 0 {
		m.HasEcho = true
		m.EchoDelay = delay - 1
	}
	if exec := binary.LittleEndian.Uint32(p[26:]); exec != 0 {
		m.HasExec = true
		m.ExecFrame = int32(exec - 1)
	}
	// 64-bit arithmetic: a hostile from/to pair must not wrap int32 into a
	// small "valid" payload length.
	want := int64(m.To) - int64(m.From) + 1
	if want < 0 {
		want = 0
	}
	if want > maxInputsPerMsg {
		return syncMsg{}, fmt.Errorf("core: sync range [%d,%d] exceeds %d inputs", m.From, m.To, maxInputsPerMsg)
	}
	if int64(len(p)) != syncHeaderLen+2*want {
		return syncMsg{}, fmt.Errorf("core: sync payload length %d does not match range [%d,%d]",
			len(p)-syncHeaderLen, m.From, m.To)
	}
	if want > 0 {
		if int64(cap(scratch)) < want {
			scratch = make([]uint16, want)
		}
		m.Inputs = scratch[:want]
		for i := range m.Inputs {
			m.Inputs[i] = binary.LittleEndian.Uint16(p[syncHeaderLen+2*i:])
		}
	}
	return m, nil
}

// encodeCtl builds a two-byte control message (ready/go/join).
func encodeCtl(kind byte, sender int) []byte {
	return []byte{kind, byte(sender)}
}

// snapChunk is one piece of a savestate transfer. The payload stream is
// zero-run RLE compressed; RawLen is the uncompressed savestate size.
type snapChunk struct {
	Sender int
	Frame  int32 // frame the snapshot represents (next frame to execute)
	Seq    uint16
	Total  uint16
	RawLen uint32
	Data   []byte
}

const snapHeaderLen = 16

// SnapChunkPayload is the savestate bytes carried per chunk; small enough
// for any UDP path (the full RK-32 savestate takes ~9 chunks).
const SnapChunkPayload = 8 * 1024

func encodeSnapChunk(c snapChunk) []byte {
	buf := make([]byte, snapHeaderLen+len(c.Data))
	buf[0] = msgSnapChunk
	buf[1] = byte(c.Sender)
	binary.LittleEndian.PutUint32(buf[2:], uint32(c.Frame))
	binary.LittleEndian.PutUint16(buf[6:], c.Seq)
	binary.LittleEndian.PutUint16(buf[8:], c.Total)
	binary.LittleEndian.PutUint32(buf[10:], c.RawLen)
	binary.LittleEndian.PutUint16(buf[14:], uint16(len(c.Data)))
	copy(buf[snapHeaderLen:], c.Data)
	return buf
}

func decodeSnapChunk(p []byte) (snapChunk, error) {
	if len(p) < snapHeaderLen || p[0] != msgSnapChunk {
		return snapChunk{}, fmt.Errorf("core: malformed snapshot chunk (%d bytes)", len(p))
	}
	c := snapChunk{
		Sender: int(p[1]),
		Frame:  int32(binary.LittleEndian.Uint32(p[2:])),
		Seq:    binary.LittleEndian.Uint16(p[6:]),
		Total:  binary.LittleEndian.Uint16(p[8:]),
		RawLen: binary.LittleEndian.Uint32(p[10:]),
	}
	n := int(binary.LittleEndian.Uint16(p[14:]))
	if len(p) != snapHeaderLen+n {
		return snapChunk{}, fmt.Errorf("core: snapshot chunk length mismatch")
	}
	c.Data = make([]byte, n)
	copy(c.Data, p[snapHeaderLen:])
	return c, nil
}
