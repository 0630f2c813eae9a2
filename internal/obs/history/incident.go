package history

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// The incident log: a bounded, append-only timeline correlating alert
// transitions with whatever else the process knows was happening — health
// flips, fleet verdict changes, auto-captured .rkcp bundles, the worst
// sessions at the moment of firing. An incident opens on the first fire
// event for a rule and resolves on the matching clear; context lines and
// capture references attach to whichever incident for that rule is open
// (or the most recent one, for post-hoc notes like "capture flushed").
//
// The log is deliberately small and in-process: it answers "what was going
// on when the pager went off" from the daemon's own memory, without any
// external store — the same design stance as the history rings it sits on.

// CaptureRef points at an auto-captured traffic bundle tied to an incident.
type CaptureRef struct {
	Session string `json:"session"`
	Path    string `json:"path"`
	AtNs    int64  `json:"at_unix_ns"`
}

// Note is one timestamped context line inside an incident.
type Note struct {
	AtNs int64  `json:"at_unix_ns"`
	Text string `json:"text"`
}

// Incident is one alert lifecycle plus its correlated context.
type Incident struct {
	ID         int          `json:"id"`
	Alert      string       `json:"alert"`
	OpenedNs   int64        `json:"opened_unix_ns"`
	ResolvedNs int64        `json:"resolved_unix_ns,omitempty"`
	BurnFast   float64      `json:"burn_fast_at_open"`
	BurnSlow   float64      `json:"burn_slow_at_open"`
	Notes      []Note       `json:"notes,omitempty"`
	Captures   []CaptureRef `json:"captures,omitempty"`
}

// Resolved reports whether the incident's alert has cleared.
func (in *Incident) Resolved() bool { return in.ResolvedNs != 0 }

// Log is a bounded incident timeline. All methods are safe for concurrent
// use; the zero value is not ready — use NewLog.
type Log struct {
	mu        sync.Mutex
	incidents []Incident // oldest first, bounded by cap
	nextID    int
	bound     int
	dropped   int64
}

// NewLog returns a log retaining at most bound incidents (default 64).
func NewLog(bound int) *Log {
	if bound <= 0 {
		bound = 64
	}
	return &Log{bound: bound, nextID: 1}
}

// Observe folds an alert transition into the log: a firing event opens an
// incident, a clearing event resolves the newest open incident for that
// rule. Wire it as (or from) Engine.OnTransition.
func (l *Log) Observe(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Firing {
		if len(l.incidents) >= l.bound {
			drop := len(l.incidents) - l.bound + 1
			l.incidents = append(l.incidents[:0], l.incidents[drop:]...)
			l.dropped += int64(drop)
		}
		l.incidents = append(l.incidents, Incident{
			ID:       l.nextID,
			Alert:    ev.Name,
			OpenedNs: ev.AtNs,
			BurnFast: ev.BurnFast,
			BurnSlow: ev.BurnSlow,
		})
		l.nextID++
		return
	}
	if in := l.openForLocked(ev.Name); in != nil {
		in.ResolvedNs = ev.AtNs
	}
}

// openForLocked returns the newest unresolved incident for alert, or nil.
func (l *Log) openForLocked(alert string) *Incident {
	for i := len(l.incidents) - 1; i >= 0; i-- {
		if l.incidents[i].Alert == alert && !l.incidents[i].Resolved() {
			return &l.incidents[i]
		}
	}
	return nil
}

// newestForLocked returns the newest incident for alert (any state), or the
// newest incident overall when alert is empty. Nil when the log is empty.
func (l *Log) newestForLocked(alert string) *Incident {
	for i := len(l.incidents) - 1; i >= 0; i-- {
		if alert == "" || l.incidents[i].Alert == alert {
			return &l.incidents[i]
		}
	}
	return nil
}

// Annotate attaches a context line to the open (else newest) incident for
// alert; alert "" targets the newest incident overall. No-op when nothing
// matches — context with no incident to belong to is dropped, not queued.
func (l *Log) Annotate(alert string, at time.Time, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := l.openForLocked(alert)
	if in == nil {
		in = l.newestForLocked(alert)
	}
	if in == nil {
		return
	}
	in.Notes = append(in.Notes, Note{AtNs: at.UnixNano(), Text: fmt.Sprintf(format, args...)})
}

// AttachCapture records an auto-captured bundle against the open (else
// newest) incident for alert.
func (l *Log) AttachCapture(alert string, ref CaptureRef) {
	l.mu.Lock()
	defer l.mu.Unlock()
	in := l.openForLocked(alert)
	if in == nil {
		in = l.newestForLocked(alert)
	}
	if in == nil {
		return
	}
	in.Captures = append(in.Captures, ref)
}

// Snapshot returns the retained incidents, oldest first, plus how many
// older incidents the bound has evicted.
func (l *Log) Snapshot() (incidents []Incident, dropped int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Incident, len(l.incidents))
	for i, in := range l.incidents {
		out[i] = in
		out[i].Notes = append([]Note(nil), in.Notes...)
		out[i].Captures = append([]CaptureRef(nil), in.Captures...)
	}
	return out, l.dropped
}

func fmtNs(ns int64) string {
	return time.Unix(0, ns).UTC().Format("15:04:05.000")
}

// RenderTimeline writes the log as a human-oriented timeline — the text
// `retrotop -incidents` prints. One block per incident, newest first; inside
// a block, notes and captures interleave by timestamp.
func RenderTimeline(w *strings.Builder, incidents []Incident, dropped int64) {
	if len(incidents) == 0 {
		w.WriteString("no incidents\n")
		return
	}
	for i := len(incidents) - 1; i >= 0; i-- {
		in := &incidents[i]
		state := "FIRING"
		dur := "ongoing"
		if in.Resolved() {
			state = "resolved"
			dur = time.Duration(in.ResolvedNs - in.OpenedNs).Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "#%d %s %s  opened %s  (%s)  burn fast=%.1f slow=%.1f\n",
			in.ID, in.Alert, state, fmtNs(in.OpenedNs), dur, in.BurnFast, in.BurnSlow)
		type line struct {
			atNs int64
			text string
		}
		lines := make([]line, 0, len(in.Notes)+len(in.Captures)+1)
		for _, n := range in.Notes {
			lines = append(lines, line{n.AtNs, n.Text})
		}
		for _, c := range in.Captures {
			lines = append(lines, line{c.AtNs, fmt.Sprintf("capture session=%s %s", c.Session, c.Path)})
		}
		if in.Resolved() {
			lines = append(lines, line{in.ResolvedNs, "alert cleared"})
		}
		sort.SliceStable(lines, func(a, b int) bool { return lines[a].atNs < lines[b].atNs })
		for _, ln := range lines {
			fmt.Fprintf(w, "  %s  %s\n", fmtNs(ln.atNs), ln.text)
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "(%d older incidents evicted)\n", dropped)
	}
}

// Handler serves the log: JSON by default, `?format=text` renders the same
// timeline retrotop -incidents shows.
func (l *Log) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		incidents, dropped := l.Snapshot()
		w.Header().Set("Cache-Control", "no-store")
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			var b strings.Builder
			RenderTimeline(&b, incidents, dropped)
			fmt.Fprint(w, b.String())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Incidents []Incident `json:"incidents"`
			Dropped   int64      `json:"dropped"`
		}{incidents, dropped})
	})
}
