package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/obs"
	"retrolock/internal/span"
	"retrolock/internal/vm"
)

// The ring sizes.
const (
	// inputWindow is how many recent frames (input + hash) the ring
	// retains: ~17 s at 60 FPS, comfortably spanning a
	// core.DefaultHashInterval detection delay plus several snapshot
	// periods.
	inputWindow = 1024
	// DefaultSnapEvery is the frame interval between periodic savestates
	// (5 s at 60 FPS) when Options.SnapEvery is zero.
	DefaultSnapEvery = 300
	// snapshots is how many periodic savestates a bundle carries.
	snapshots = 4
	// remoteWindow is how many peer digests are retained.
	remoteWindow = 64
	// snapBaseEvery is the capture interval between full base images in
	// the snapshot ring: one full image, then snapBaseEvery-1 dirty-page
	// deltas, then the next full image. The ring holds snapshots +
	// snapBaseEvery slots, so the newest snapshots captures always have
	// their base in the ring.
	snapBaseEvery = 8
)

// Saver is the savestate surface the recorder captures (vm.Console
// provides it). AppendSave is a full image that leaves the delta chain
// alone; AppendSaveBase starts the chain with a full image, and
// AppendSaveDelta carries only the pages mutated since the previous capture
// in the chain, in the vm's RKSD format (materialized back into full images
// via vm.ApplyDeltaToImage). Each appends to buf, so a reused buffer makes
// a capture allocation-free.
type Saver interface {
	AppendSave(buf []byte) []byte
	AppendSaveBase(buf []byte) []byte
	AppendSaveDelta(buf []byte) []byte
}

// Options configures a Recorder. The zero value is usable: the rings above,
// a savestate every DefaultSnapEvery frames, no auto-write directory, no
// stall trigger.
type Options struct {
	// Site is this site's number (manifest + dump naming).
	Site int
	// Game names the ROM and ROM is its encoded image, embedded in the
	// bundle so triage replays without the original file.
	Game string
	ROM  []byte
	// Config is the session configuration, recorded in the manifest.
	Config core.Config

	// SnapEvery is the frame interval between periodic savestates (zero:
	// DefaultSnapEvery).
	SnapEvery int

	// StallThreshold is the SyncInput wait past which the session declares
	// a liveness-stall incident (0 disables the trigger).
	StallThreshold time.Duration

	// Dir, when non-empty, is where Incident auto-writes the bundle as
	// flight-site<N>-<kind>-f<frame>.rkfb.
	Dir string

	// Registry, when non-nil, contributes a metrics snapshot to bundles.
	Registry *obs.Registry
	// Tracer, when non-nil, contributes its event ring as JSONL.
	Tracer *obs.Tracer
	// Journal, when non-nil, contributes the input-journey span window, so
	// triage can reconstruct per-input latency around the incident.
	Journal *span.Journal
}

func (o Options) withDefaults() Options {
	if o.SnapEvery <= 0 {
		o.SnapEvery = DefaultSnapEvery
	}
	return o
}

// snapSlot is one reusable savestate buffer. Slots are pre-sized so that
// after warm-up the buffer never grows again and steady-state snapshotting
// does not allocate. A slot holds either a full base image or a dirty-page
// delta, depending on where its capture fell in the chain.
type snapSlot struct {
	frame   int64
	isDelta bool
	buf     []byte
}

// Recorder is the black box: bounded rings fed by the frame loop, flushed
// into a Bundle on the first incident. It implements core.FlightRecorder.
//
// All methods are mutex-guarded: the frame loop writes, while an HTTP dump
// or a SIGQUIT handler may read concurrently. The steady-state paths
// (RecordFrame, RecordRemoteHash) never allocate.
type Recorder struct {
	opts  Options
	saver Saver

	mu      sync.Mutex
	frames  []FrameRecord
	nFrames uint64
	snaps   []snapSlot
	nSnaps  uint64
	remote  []RemoteHash
	nRemote uint64

	bundle []byte // encoded incident bundle, once fired (nil before)
	path   string // where the bundle was written ("" if not)
	dumpMu sync.Mutex
	werr   error
}

// NewRecorder attaches a black box to machine. Hand the result to
// (*core.Session).SetFlightRecorder. machine should be (or wrap) the same
// console the session steps; it is only touched at incident time and during
// periodic snapshot capture.
func NewRecorder(machine Saver, opts Options) *Recorder {
	r := &Recorder{
		opts:   opts.withDefaults(),
		saver:  machine,
		frames: make([]FrameRecord, inputWindow),
		remote: make([]RemoteHash, remoteWindow),
		snaps:  make([]snapSlot, snapshots+snapBaseEvery),
	}
	// Pre-size every slot from a probe savestate so steady-state captures
	// reuse full-capacity buffers and never allocate. A delta can exceed a
	// full image by its per-page framing (a worst-case every-page delta
	// carries a page index per page), so give the slots headroom beyond
	// the full-image size.
	capHint := len(machine.AppendSave(nil)) + 1024
	for i := range r.snaps {
		r.snaps[i] = snapSlot{frame: -1, buf: make([]byte, 0, capHint)}
	}
	return r
}

// StallThreshold implements core.FlightRecorder.
func (r *Recorder) StallThreshold() time.Duration { return r.opts.StallThreshold }

// RecordFrame implements core.FlightRecorder: one ring write per frame, plus
// a buffer-reusing savestate capture every SnapEvery frames.
func (r *Recorder) RecordFrame(frame int, input uint16, hash uint64, syncWait time.Duration) {
	r.mu.Lock()
	r.frames[r.nFrames%uint64(len(r.frames))] = FrameRecord{
		Frame: int64(frame),
		Input: input,
		Wait:  syncWait,
		Hash:  hash,
	}
	r.nFrames++
	if frame%r.opts.SnapEvery == 0 {
		slot := &r.snaps[r.nSnaps%uint64(len(r.snaps))]
		slot.frame = int64(frame)
		slot.isDelta = r.nSnaps%snapBaseEvery != 0
		if slot.isDelta {
			slot.buf = r.saver.AppendSaveDelta(slot.buf[:0])
		} else {
			slot.buf = r.saver.AppendSaveBase(slot.buf[:0])
		}
		r.nSnaps++
	}
	r.mu.Unlock()
}

// RecordRemoteHash implements core.FlightRecorder.
func (r *Recorder) RecordRemoteHash(site, frame int, hash uint64) {
	r.mu.Lock()
	r.remote[r.nRemote%uint64(len(r.remote))] = RemoteHash{Site: site, Frame: int64(frame), Hash: hash}
	r.nRemote++
	r.mu.Unlock()
}

// Incident implements core.FlightRecorder: the first call freezes the rings,
// captures the machine's final state, encodes the bundle and — when
// Options.Dir is set — writes it to disk. Later calls are no-ops.
func (r *Recorder) Incident(kind core.IncidentKind, cause error) {
	r.mu.Lock()
	if r.bundle != nil {
		r.mu.Unlock()
		return
	}
	b := r.buildLocked(kind, cause)
	r.bundle = b.Encode()
	frame := b.Manifest.Frame
	r.mu.Unlock()

	if r.opts.Dir != "" {
		name := fmt.Sprintf("flight-site%d-%s-f%d.rkfb", r.opts.Site, kind, frame)
		path := filepath.Join(r.opts.Dir, name)
		err := os.MkdirAll(r.opts.Dir, 0o755)
		if err == nil {
			err = os.WriteFile(path, r.Bundle(), 0o644)
		}
		r.mu.Lock()
		if err != nil {
			r.werr = err
		} else {
			r.path = path
		}
		r.mu.Unlock()
	}
}

// buildLocked assembles the bundle from the live rings. Caller holds r.mu.
func (r *Recorder) buildLocked(kind core.IncidentKind, cause error) *Bundle {
	b := &Bundle{
		Manifest: Manifest{
			Version:      BundleVersion,
			Site:         r.opts.Site,
			Kind:         kind.String(),
			KindCode:     int(kind),
			Game:         r.opts.Game,
			ROMHash:      ROMHash(r.opts.ROM),
			NumPlayers:   r.opts.Config.NumPlayers,
			BufFrame:     r.opts.Config.BufFrame,
			CFPS:         core.DefaultCFPS,
			HashInterval: core.DefaultHashInterval,
			StartFrame:   r.opts.Config.StartFrame,
		},
		ROM: append([]byte(nil), r.opts.ROM...),
	}
	if cause != nil {
		b.Manifest.Cause = cause.Error()
	}

	// Ring contents, oldest first.
	n := r.nFrames
	if c := uint64(len(r.frames)); n > c {
		n = c
	}
	b.Frames = make([]FrameRecord, 0, n)
	for i := r.nFrames - n; i < r.nFrames; i++ {
		b.Frames = append(b.Frames, r.frames[i%uint64(len(r.frames))])
	}
	if len(b.Frames) > 0 {
		b.Manifest.Frame = b.Frames[len(b.Frames)-1].Frame + 1
	} else {
		b.Manifest.Frame = int64(r.opts.Config.StartFrame)
	}

	// Emit the newest snapshots captures as full images: replay the
	// retained chain oldest-first, a base replacing the working image and a
	// delta patching it in place. The ring holds snapBaseEvery slots more
	// than it emits, so the base governing the oldest emitted capture is
	// always still retained. Bundles therefore always hold full savestates
	// — the RKFB format and its triage consumers are unaffected by how the
	// ring stores them.
	ns := min(r.nSnaps, uint64(len(r.snaps)))
	emit := min(ns, snapshots)
	var image []byte
	haveBase := false
	for i := r.nSnaps - ns; i < r.nSnaps; i++ {
		s := r.snaps[i%uint64(len(r.snaps))]
		if s.isDelta {
			if !haveBase {
				continue // chain head rotated out from under a partial window
			}
			if err := vm.ApplyDeltaToImage(image, s.buf); err != nil {
				haveBase = false
				continue
			}
		} else {
			image = append(image[:0], s.buf...)
			haveBase = true
		}
		if i >= r.nSnaps-emit {
			b.Snapshots = append(b.Snapshots, StateSnapshot{
				Frame: s.frame,
				State: append([]byte(nil), image...),
			})
		}
	}
	if len(b.Frames) > 0 {
		// The incident-time state: what the machine actually held after its
		// last executed frame. Triage diffs this against a clean replay to
		// localize the corruption (e.g. the poked RAM byte).
		b.Final = &StateSnapshot{
			Frame: b.Frames[len(b.Frames)-1].Frame,
			State: r.saver.AppendSave(nil),
		}
	}

	nr := r.nRemote
	if c := uint64(len(r.remote)); nr > c {
		nr = c
	}
	b.RemoteHashes = make([]RemoteHash, 0, nr)
	for i := r.nRemote - nr; i < r.nRemote; i++ {
		b.RemoteHashes = append(b.RemoteHashes, r.remote[i%uint64(len(r.remote))])
	}

	if r.opts.Tracer != nil {
		var buf bytes.Buffer
		_ = r.opts.Tracer.WriteJSONL(&buf)
		b.Trace = buf.Bytes()
	}
	if r.opts.Registry != nil {
		if m, err := json.Marshal(r.opts.Registry.Snapshot()); err == nil {
			b.Metrics = m
		}
	}
	if r.opts.Journal != nil {
		b.Spans = r.opts.Journal.Spans()
	}
	return b
}

// Bundle returns the encoded incident bundle (nil before any incident).
func (r *Recorder) Bundle() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bundle
}

// BundlePath returns where Incident wrote the bundle ("" when it did not).
func (r *Recorder) BundlePath() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.path
}

// WriteErr reports a failed auto-write (nil when none was attempted or it
// succeeded).
func (r *Recorder) WriteErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.werr
}

// Dump streams a bundle to w: the frozen incident bundle when one fired, or
// a fresh manual-kind capture of the current rings otherwise. A manual dump
// does not consume the one-shot trigger, so /debug/flight/dump may be polled
// without disarming the black box. Registered on the obs HTTP surface via
// Registry.AddDump.
func (r *Recorder) Dump(w io.Writer) error {
	// dumpMu serializes concurrent manual dumps without holding r.mu
	// across the (potentially slow) network write.
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	r.mu.Lock()
	data := r.bundle
	if data == nil {
		data = r.buildLocked(core.IncidentManual, nil).Encode()
	}
	r.mu.Unlock()
	_, err := w.Write(data)
	return err
}

// WriteManual forces a manual-kind incident (the SIGQUIT path): unlike Dump
// it consumes the trigger and auto-writes to Options.Dir, returning the
// path. Returns the existing path when an incident already fired.
func (r *Recorder) WriteManual() (string, error) {
	r.Incident(core.IncidentManual, nil)
	if err := r.WriteErr(); err != nil {
		return "", err
	}
	return r.BundlePath(), nil
}
