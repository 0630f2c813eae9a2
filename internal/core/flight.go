package core

import (
	"errors"
	"fmt"
	"time"
)

// Black-box hook. The flight recorder lives in internal/flight (which imports
// core); core only defines the narrow interface the frame loop feeds, so the
// dependency arrow points outward and the hot path stays a couple of
// predictable calls.

// IncidentKind classifies why a flight-recorder dump was triggered.
type IncidentKind uint8

const (
	// IncidentNone is the zero value; it never triggers a dump.
	IncidentNone IncidentKind = iota
	// IncidentDesync is a replica hash divergence (DivergenceError).
	IncidentDesync
	// IncidentStall is a liveness stall: a SyncInput wait past the
	// recorder's threshold, or an ErrWaitTimeout abort.
	IncidentStall
	// IncidentPanic is a panic escaping the frame loop.
	IncidentPanic
	// IncidentManual is an operator-requested dump (SIGQUIT, HTTP, or a
	// harness flushing its black boxes after a failed invariant).
	IncidentManual
)

// String names the kind for manifests and file names.
func (k IncidentKind) String() string {
	switch k {
	case IncidentDesync:
		return "desync"
	case IncidentStall:
		return "stall"
	case IncidentPanic:
		return "panic"
	case IncidentManual:
		return "manual"
	}
	return "none"
}

// FlightRecorder is the black-box surface a Session feeds. Every method is
// called from the frame loop, so implementations must not block and must not
// allocate in the steady state (RecordFrame runs once per frame; Incident is
// the rare crash path and may do real work).
type FlightRecorder interface {
	// RecordFrame logs one executed frame: the merged input fed to the
	// machine, the post-transition state hash, and how long SyncInput
	// blocked for this frame (0 when it did not).
	RecordFrame(frame int, input uint16, hash uint64, syncWait time.Duration)
	// RecordRemoteHash logs a peer's state digest as it arrives, so the
	// bundle carries both sides of the hash exchange.
	RecordRemoteHash(site, frame int, hash uint64)
	// Incident fires the black box: capture final state and persist the
	// bundle. Implementations are one-shot — every call after the first is
	// a no-op — so the session may report redundantly without guards.
	Incident(kind IncidentKind, cause error)
	// StallThreshold is the SyncInput wait beyond which the session
	// declares a liveness stall (0 disables the stall trigger).
	StallThreshold() time.Duration
}

// SetFlightRecorder attaches a black-box recorder (nil detaches). Call
// before the frame loop starts. The session reports divergences, stalls past
// fr.StallThreshold, frame-loop panics and per-frame records to it; peer hash
// digests are chained onto the existing divergence-detection hook.
func (s *Session) SetFlightRecorder(fr FlightRecorder) {
	s.flight = fr
	if fr == nil {
		s.stallThreshold = 0
		return
	}
	s.stallThreshold = fr.StallThreshold()
	prev := s.sync.OnHash
	s.sync.OnHash = func(site, frame int, hash uint64) {
		if prev != nil {
			prev(site, frame, hash)
		}
		fr.RecordRemoteHash(site, frame, hash)
	}
}

// incident routes one trigger to the live telemetry and the recorder. The
// tracer event carries the kind code, so dashboards see what the black box
// saw; the recorder turns it into a bundle.
func (s *Session) incident(kind IncidentKind, cause error) {
	if kind == IncidentDesync {
		s.desyncs.Add(1)
	}
	s.tele.Incident(int(s.frame.Load()), s.clock.Now(), int64(kind))
	if s.flight != nil {
		s.flight.Incident(kind, cause)
	}
}

// reportFailure classifies a frame-loop error as an incident. Divergences
// and wait timeouts get their own kinds; anything else is not an incident
// (e.g. a SyncInput sequencing bug surfaces as a plain error).
func (s *Session) reportFailure(err error) {
	var div *DivergenceError
	switch {
	case errors.As(err, &div):
		s.incident(IncidentDesync, err)
	case errors.Is(err, ErrWaitTimeout):
		s.incident(IncidentStall, err)
	}
}

// recoverPanic converts a frame-loop panic into an incident and re-raises
// it. Deferred unconditionally by RunFrames (the defer is open-coded and
// free on the non-panic path).
func (s *Session) recoverPanic() {
	if r := recover(); r != nil {
		s.incident(IncidentPanic, fmt.Errorf("core: panic in frame loop: %v", r))
		panic(r)
	}
}
