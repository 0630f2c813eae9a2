// Package span records the lifecycle of every input frame as it travels
// between the two sites of a lockstep session: pressed locally, encoded and
// sent, retransmitted by ARQ, received and merged remotely, executed and
// rendered on both ends. Each frame owns one fixed-size Span slot in a
// power-of-two ring (the Journal), so a week-long session costs constant
// memory and the stamping calls on the 60 FPS hot path never allocate.
//
// The point of the exercise is the paper's feasibility question asked live:
// what is the true end-to-end input latency a player experiences, and how far
// apart are the two machines? Those quantities cross the network, so the two
// sites' clocks must be reconciled first — OffsetEstimator does that from the
// sync protocol's existing echo fields with the classic NTP two-sample
// midpoint, filtered by minimum RTT. With the offset in hand, a remote
// timestamp maps onto the local clock and the Journal can close spans whose
// endpoints were stamped on different machines:
//
//   - cross-site input latency: the peer pressed a button (their frame G,
//     taking effect at frame G+lag under local lag) and we executed frame
//     G+lag some time later. Executed(G+lag) - RemotePressed(G+lag).
//   - execution skew: both sites began frame F; the difference of the two
//     begin instants, on one clock, is the live version of the paper's
//     sub-10 ms skew requirement.
//   - one-way network latency: our receive instant minus the peer's send
//     instant.
//
// The package imports only internal/obs (for the histograms the derived
// latencies feed); core, transport and flight import span, never the
// reverse.
package span

import (
	"sync"
	"time"

	"retrolock/internal/obs"
)

// Span is the lifecycle record of one input frame. Every field except Frame
// and Retransmits is an instant in nanoseconds since the session epoch, on
// the local clock (remote instants are mapped through the offset estimate
// before stamping); 0 means "not observed". Stamps are first-wins: once set,
// a field never changes, which is what makes the derived observations
// (latency, skew) fire exactly once per frame.
type Span struct {
	Frame int64

	// Local lifecycle.
	Pressed  int64 // local input sampled, buffered for this frame
	Encoded  int64 // serialized into a sync message
	Sent     int64 // handed to the transport
	Executed int64 // this site began executing the frame
	Rendered int64 // this site finished the frame's emulation step

	// Remote lifecycle (as observed here).
	Recv       int64 // first sync message carrying the peer's input arrived
	Merged     int64 // the peer's input was merged into the buffer
	RemoteSend int64 // peer's send instant, mapped to the local clock
	RemoteExec int64 // peer began executing this frame, mapped to local clock
	// RemotePressed is the instant the peer pressed the input that takes
	// effect at this frame (their frame Frame-lag begin), mapped to the
	// local clock. It anchors the true cross-site input latency.
	RemotePressed int64

	// Retransmits counts ARQ retransmissions attributed to this frame's
	// sync traffic.
	Retransmits int64
}

// journalDefaultCap is the default ring size: at 60 FPS, 512 frames is ~8.5 s
// of history — far more than any live derivation needs (lag is ~6 frames).
const journalDefaultCap = 512

// Journal is the per-session span ring. Stamps reach it through a Batch
// (the frame loop's) and Retransmit (the ARQ layer's); both take the one
// mutex, never allocate, and are no-ops on a nil journal, so call sites need
// no guards.
type Journal struct {
	// Cross observes the end-to-end cross-site input latency (ns): peer
	// press to local execution. Nil to disable.
	Cross *obs.Histogram
	// Local observes the local input latency (ns): own press to own
	// execution — the local-lag cost, lag/60 s by construction.
	Local *obs.Histogram
	// Net observes the one-way wire latency (ns): peer send to local
	// receive, through the offset estimate.
	Net *obs.Histogram
	// Skew observes |local frame begin - remote frame begin| (ns) for each
	// frame both sites are known to have executed — the paper's skew, live.
	Skew *obs.Histogram

	epoch time.Time
	mask  int64

	mu       sync.Mutex
	buf      []Span
	lastSent int64 // newest frame ever stamped Sent; ARQ retransmits attribute here
}

// NewJournal builds a journal whose ring holds capacity spans (rounded up to
// a power of two, minimum 64; <= 0 selects the 512-slot default). epoch
// anchors every stamp; use the session clock's start.
func NewJournal(epoch time.Time, capacity int) *Journal {
	if capacity <= 0 {
		capacity = journalDefaultCap
	}
	c := 64
	for c < capacity {
		c <<= 1
	}
	return &Journal{epoch: epoch, mask: int64(c - 1), buf: make([]Span, c), lastSent: -1}
}

// ns converts a local instant to stamp form. The zero instant would collide
// with "unset", so it clamps to 1 — a nanosecond of bias nobody can measure.
func (j *Journal) ns(at time.Time) int64 {
	v := at.Sub(j.epoch).Nanoseconds()
	if v <= 0 {
		v = 1
	}
	return v
}

// slot returns the ring slot for frame, claiming (zeroing) it when the frame
// is newer than the resident span, or nil when the frame is so old its slot
// has been reused by a later one.
func (j *Journal) slot(frame int64) *Span {
	s := &j.buf[frame&j.mask]
	if s.Frame != frame {
		if s.Frame > frame {
			return nil
		}
		*s = Span{Frame: frame}
	}
	return s
}

// observe feeds a derived duration to a histogram; non-positive durations
// (clock-offset noise) are dropped rather than recorded as zeros.
func observe(h *obs.Histogram, v int64) {
	if h != nil && v > 0 {
		h.Observe(v)
	}
}

// observeAbs feeds |v| to a histogram, keeping zero: a zero skew is a real,
// excellent measurement, not noise.
func observeAbs(h *obs.Histogram, v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = -v
	}
	h.Observe(v)
}

func (j *Journal) pressedLocked(frame, t int64) {
	if s := j.slot(frame); s != nil && s.Pressed == 0 {
		s.Pressed = t
	}
}

func (j *Journal) sendRangeLocked(from, to, t int64) {
	for f := from; f <= to; f++ {
		s := j.slot(f)
		if s == nil {
			continue
		}
		if s.Encoded == 0 {
			s.Encoded = t
		}
		if s.Sent == 0 {
			s.Sent = t
		}
	}
	if to > j.lastSent {
		j.lastSent = to
	}
}

func (j *Journal) recvLocked(frame, t, remoteSendNs int64) {
	if s := j.slot(frame); s != nil && s.Recv == 0 {
		s.Recv = t
		s.Merged = t
		if remoteSendNs > 0 {
			s.RemoteSend = remoteSendNs
			observe(j.Net, t-remoteSendNs)
		}
	}
}

func (j *Journal) executedLocked(frame, t int64) {
	if s := j.slot(frame); s != nil && s.Executed == 0 {
		s.Executed = t
		if s.Pressed != 0 {
			observe(j.Local, t-s.Pressed)
		}
		if s.RemotePressed != 0 {
			observe(j.Cross, t-s.RemotePressed)
		}
		if s.RemoteExec != 0 {
			observeAbs(j.Skew, t-s.RemoteExec)
		}
	}
}

func (j *Journal) renderedLocked(frame, t int64) {
	if s := j.slot(frame); s != nil && s.Rendered == 0 {
		s.Rendered = t
	}
}

func (j *Journal) remoteExecLocked(frame, remoteNs, lag int64) {
	if s := j.slot(frame); s != nil && s.RemoteExec == 0 {
		s.RemoteExec = remoteNs
		if s.Executed != 0 {
			observeAbs(j.Skew, s.Executed-s.RemoteExec)
		}
	}
	if lag > 0 {
		if p := j.slot(frame + lag); p != nil && p.RemotePressed == 0 {
			p.RemotePressed = remoteNs
			if p.Executed != 0 {
				observe(j.Cross, p.Executed-p.RemotePressed)
			}
		}
	}
}

// Retransmit attributes one ARQ segment retransmission (at at) to the newest
// frame this journal has seen sent — ARQ sits below frame numbering, so the
// most recent sync window is the best available owner.
func (j *Journal) Retransmit(at time.Time) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.lastSent >= 0 {
		if s := j.slot(j.lastSent); s != nil {
			s.Retransmits++
		}
	}
	j.mu.Unlock()
}

// Spans returns a copy of every resident span in frame order. It allocates —
// use it from export paths (flight bundles, tests), never the frame loop.
func (j *Journal) Spans() []Span {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Span, 0, len(j.buf))
	// The ring is frame-indexed, not rotation-ordered: resident frames are
	// some window [lo, hi] with hi-lo < len(buf). Find the minimum resident
	// frame and walk forward from its slot.
	lo, found := int64(0), false
	for i := range j.buf {
		s := &j.buf[i]
		if (*s == Span{}) {
			continue
		}
		if !found || s.Frame < lo {
			lo, found = s.Frame, true
		}
	}
	if !found {
		return out
	}
	for f := lo; f < lo+int64(len(j.buf)); f++ {
		s := j.buf[f&j.mask]
		if s.Frame == f && (s != Span{}) {
			out = append(out, s)
		}
	}
	return out
}
