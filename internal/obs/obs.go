// Package obs is the live observability layer: a fixed-capacity, zero-alloc
// frame-event tracer, lock-free histogram and counter primitives, and a
// metric registry served over HTTP (Prometheus text, expvar, pprof, Chrome
// trace_event JSON).
//
// The paper's evaluation is offline — Figures 1 and 2 are computed after the
// run from recorded frame times — but a production-scale service needs to
// answer "is this session healthy right now" without stopping it. obs is
// that answer: the frame loop records typed events into a bounded ring and
// bumps atomic histograms (neither allocates, so PR 1's zero-alloc hot path
// survives instrumentation), and any other goroutine — an HTTP scrape, the
// chaos harness's phase snapshots — reads them live.
//
// The package deliberately imports nothing from the rest of the repository:
// core, transport, netem and the binaries all import obs, and each registers
// its own adapters (core.RegisterSessionMetrics, transport.RegisterARQMetrics,
// netem.RegisterLinkMetrics) so the dependency arrow only points here.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// EventKind classifies one tracer event.
type EventKind uint8

const (
	// EvNone is the zero value; it never appears in a snapshot.
	EvNone EventKind = iota
	// EvFrameStart marks BeginFrameTiming of a frame (Algorithm 1 step 5).
	EvFrameStart
	// EvFrameEnd marks the completion of EndFrameTiming (step 10).
	EvFrameEnd
	// EvInputSend marks one sync message transmitted; Arg is its byte size.
	EvInputSend
	// EvInputRecv marks one sync message accepted; Arg is its input count.
	EvInputRecv
	// EvRetransmit marks one ARQ segment retransmission; Arg is the
	// segment's sequence number (Frame is -1: ARQ is below frame numbering).
	EvRetransmit
	// EvStall marks a SyncInput call that had to block; Arg is the wait in
	// nanoseconds.
	EvStall
	// EvRollback marks a restore+replay episode of the rollback baseline;
	// Arg is the rollback depth in frames.
	EvRollback
	// EvIncident marks a flight-recorder incident trigger (divergence,
	// liveness stall, panic, or a manual dump); Arg is the incident kind
	// code the triggering layer assigned.
	EvIncident
	// EvHealth marks a health SLO state transition; Arg encodes the
	// transition as from<<8 | to (HealthState codes). Frame is -1: health
	// windows span many frames.
	EvHealth
	// EvAlert marks a burn-rate alert transition; Arg encodes the rule
	// index<<1 | state (1 firing, 0 resolved). Frame is -1: alerts grade
	// minutes of budget, not frames.
	EvAlert
)

// String returns the JSONL/trace name of the kind.
func (k EventKind) String() string {
	switch k {
	case EvFrameStart:
		return "frame_start"
	case EvFrameEnd:
		return "frame_end"
	case EvInputSend:
		return "input_send"
	case EvInputRecv:
		return "input_recv"
	case EvRetransmit:
		return "retransmit"
	case EvStall:
		return "stall"
	case EvRollback:
		return "rollback"
	case EvIncident:
		return "incident"
	case EvHealth:
		return "health"
	case EvAlert:
		return "alert"
	}
	return "unknown"
}

// Event is one tracer entry. The struct is a fixed 24 bytes so a tracer's
// memory is exactly capacity*24 for the lifetime of the session.
type Event struct {
	// At is the event instant in nanoseconds since the tracer's epoch.
	At int64
	// Arg carries the kind-specific payload (see the EventKind docs).
	Arg int64
	// Frame is the frame number the event belongs to (-1 when the event is
	// not tied to a frame, e.g. ARQ retransmissions).
	Frame int32
	// Site is the recording site.
	Site int16
	// Kind classifies the event.
	Kind EventKind
}

// Tracer is a fixed-capacity ring of Events. Record never allocates and
// never blocks for long (a mutex-guarded slot write); when the ring is full
// the oldest events are overwritten, so a tracer attached to a week-long
// session costs constant memory and always holds the freshest timeline.
//
// A nil *Tracer is valid and records nothing, so call sites need no guards.
type Tracer struct {
	epoch time.Time
	mask  uint64

	mu  sync.Mutex
	n   uint64 // total events ever recorded
	buf []Event
}

// NewTracer builds a tracer holding the last capacity events (rounded up to
// a power of two, minimum 16). epoch anchors Event.At; use the session
// clock's start so timestamps align across sites sharing a clock.
func NewTracer(capacity int, epoch time.Time) *Tracer {
	c := 16
	for c < capacity {
		c <<= 1
	}
	return &Tracer{epoch: epoch, mask: uint64(c - 1), buf: make([]Event, c)}
}

// Record appends one event. Safe for concurrent use; never allocates; a nil
// receiver is a no-op.
func (t *Tracer) Record(kind EventKind, site, frame int, at time.Time, arg int64) {
	if t == nil {
		return
	}
	e := Event{
		At:    at.Sub(t.epoch).Nanoseconds(),
		Arg:   arg,
		Frame: int32(frame),
		Site:  int16(site),
		Kind:  kind,
	}
	t.mu.Lock()
	t.buf[t.n&t.mask] = e
	t.n++
	t.mu.Unlock()
}

// Snapshot copies the retained events in recording order (oldest first).
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.n
	if c := uint64(len(t.buf)); size > c {
		size = c
	}
	out := make([]Event, 0, size)
	for i := t.n - size; i < t.n; i++ {
		out = append(out, t.buf[i&t.mask])
	}
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Snapshot() {
		fmt.Fprintf(bw, `{"at_ns":%d,"kind":%q,"site":%d,"frame":%d,"arg":%d}`+"\n",
			e.At, e.Kind.String(), e.Site, e.Frame, e.Arg)
	}
	return bw.Flush()
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Each site becomes
// one named thread; frame start/end pairs become duration slices, everything
// else instant events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Snapshot())
}

// WriteChromeTrace renders an event slice (already in time order, e.g. a
// merged snapshot of several tracers sharing an epoch) as Chrome trace_event
// JSON.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(format string, args ...interface{}) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	sites := map[int16]bool{}
	for _, e := range events {
		sites[e.Site] = true
	}
	ordered := make([]int, 0, len(sites))
	for s := range sites {
		ordered = append(ordered, int(s))
	}
	sort.Ints(ordered)
	for _, s := range ordered {
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"site %d"}}`, s, s)
	}

	// depth suppresses an unmatched frame_end at the head of a wrapped ring
	// (its frame_start was overwritten); Chrome rejects stray "E" phases.
	depth := map[int16]int{}
	for _, e := range events {
		ts := float64(e.At) / 1e3 // trace_event timestamps are microseconds
		switch e.Kind {
		case EvFrameStart:
			depth[e.Site]++
			emit(`{"name":"frame","cat":"frame","ph":"B","ts":%.3f,"pid":1,"tid":%d,"args":{"frame":%d}}`,
				ts, e.Site, e.Frame)
		case EvFrameEnd:
			if depth[e.Site] == 0 {
				continue
			}
			depth[e.Site]--
			emit(`{"name":"frame","cat":"frame","ph":"E","ts":%.3f,"pid":1,"tid":%d}`, ts, e.Site)
		default:
			emit(`{"name":%q,"cat":"sync","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"frame":%d,"arg":%d}}`,
				e.Kind.String(), ts, e.Site, e.Frame, e.Arg)
		}
	}
	bw.WriteString("]}")
	return bw.Flush()
}

// SessionObs bundles the instrumentation a session carries: a tracer for the
// event timeline and histograms for the latency distributions. Any field may
// be nil (and the whole bundle may be nil) — every hook degrades to a no-op,
// so core's hot path needs no configuration branches.
type SessionObs struct {
	// Site labels every recorded event.
	Site int
	// Tracer receives the frame/sync event timeline.
	Tracer *Tracer
	// FrameTime observes each frame's wall duration (ns).
	FrameTime *Histogram
	// Wait observes each blocking SyncInput's wait (ns).
	Wait *Histogram
	// RTT observes accepted round-trip samples (ns).
	RTT *Histogram
}

// FrameStart records the begin instant of a frame.
func (o *SessionObs) FrameStart(frame int, at time.Time) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvFrameStart, o.Site, frame, at, 0)
}

// FrameEnd records a frame's completion and observes its duration.
func (o *SessionObs) FrameEnd(frame int, start, end time.Time) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvFrameEnd, o.Site, frame, end, 0)
	o.FrameTime.Observe(end.Sub(start).Nanoseconds())
}

// InputSend records one transmitted sync message of the given size.
func (o *SessionObs) InputSend(frame int, at time.Time, bytes int) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvInputSend, o.Site, frame, at, int64(bytes))
}

// InputRecv records one accepted sync message carrying inputs input words.
func (o *SessionObs) InputRecv(frame int, at time.Time, inputs int) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvInputRecv, o.Site, frame, at, int64(inputs))
}

// Stall records a blocking SyncInput wait.
func (o *SessionObs) Stall(frame int, at time.Time, d time.Duration) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvStall, o.Site, frame, at, int64(d))
	o.Wait.Observe(int64(d))
}

// RTTSample observes an accepted round-trip measurement.
func (o *SessionObs) RTTSample(d time.Duration) {
	if o == nil {
		return
	}
	o.RTT.Observe(int64(d))
}

// Rollback records a restore+replay episode of depth frames.
func (o *SessionObs) Rollback(frame int, at time.Time, depth int) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvRollback, o.Site, frame, at, int64(depth))
}

// Incident records an incident trigger (flight-recorder dump) with the
// triggering layer's kind code as the argument, so the live timeline shows
// exactly when and why the black box fired.
func (o *SessionObs) Incident(frame int, at time.Time, kind int64) {
	if o == nil {
		return
	}
	o.Tracer.Record(EvIncident, o.Site, frame, at, kind)
}
