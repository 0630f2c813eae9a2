package history

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func fireAt(name string, at time.Time) Event {
	return Event{Name: name, Firing: true, AtNs: at.UnixNano(), BurnFast: 9, BurnSlow: 5}
}

func clearAt(name string, at time.Time) Event {
	return Event{Name: name, Firing: false, AtNs: at.UnixNano()}
}

func TestLogLifecycle(t *testing.T) {
	l := NewLog(0)
	now := testEpoch

	l.Observe(fireAt("r", now))
	if open, _ := l.Snapshot(); len(open) != 1 || open[0].Resolved() {
		t.Fatalf("after fire: %+v, want one open incident", open)
	}
	l.Annotate("r", now.Add(time.Second), "census: %d degraded", 7)
	l.AttachCapture("r", CaptureRef{Session: "s1", Path: "/tmp/a.rkcp", AtNs: now.Add(2 * time.Second).UnixNano()})
	l.Observe(clearAt("r", now.Add(5*time.Second)))

	incidents, dropped := l.Snapshot()
	if dropped != 0 || len(incidents) != 1 {
		t.Fatalf("snapshot: %d incidents, %d dropped, want 1/0", len(incidents), dropped)
	}
	in := incidents[0]
	if !in.Resolved() || in.ID != 1 || in.Alert != "r" {
		t.Errorf("incident = %+v, want resolved #1 for r", in)
	}
	if len(in.Notes) != 1 || in.Notes[0].Text != "census: 7 degraded" {
		t.Errorf("notes = %+v, want the census annotation", in.Notes)
	}
	if len(in.Captures) != 1 || in.Captures[0].Session != "s1" {
		t.Errorf("captures = %+v, want the attached bundle", in.Captures)
	}
	if incidents, _ := l.Snapshot(); len(incidents) != 1 || !incidents[0].Resolved() {
		t.Errorf("after clear: %+v, want the one incident resolved", incidents)
	}

	// Post-hoc annotation (alert "" = newest overall) still lands.
	l.Annotate("", now.Add(10*time.Second), "capture flushed to disk")
	incidents, _ = l.Snapshot()
	if len(incidents[0].Notes) != 2 {
		t.Errorf("post-hoc note did not attach: %+v", incidents[0].Notes)
	}
}

func TestLogBoundEvicts(t *testing.T) {
	l := NewLog(3)
	now := testEpoch
	for i := 0; i < 5; i++ {
		at := now.Add(time.Duration(i) * time.Minute)
		l.Observe(fireAt("r", at))
		l.Observe(clearAt("r", at.Add(time.Second)))
	}
	incidents, dropped := l.Snapshot()
	if len(incidents) != 3 || dropped != 2 {
		t.Fatalf("bound 3 after 5 incidents: %d retained, %d dropped, want 3/2", len(incidents), dropped)
	}
	if incidents[0].ID != 3 || incidents[2].ID != 5 {
		t.Errorf("retained IDs %d..%d, want the newest (3..5)", incidents[0].ID, incidents[2].ID)
	}
}

func TestAnnotateWithoutIncidentIsDropped(t *testing.T) {
	l := NewLog(0)
	l.Annotate("r", testEpoch, "orphan context")
	l.AttachCapture("r", CaptureRef{Session: "s"})
	if incidents, _ := l.Snapshot(); len(incidents) != 0 {
		t.Errorf("context with no incident created one: %+v", incidents)
	}
}

// TestClearResolvesMatchingRuleOnly: a clear for one rule must not resolve
// another rule's open incident.
func TestClearResolvesMatchingRuleOnly(t *testing.T) {
	l := NewLog(0)
	now := testEpoch
	l.Observe(fireAt("a", now))
	l.Observe(fireAt("b", now.Add(time.Second)))
	l.Observe(clearAt("a", now.Add(2*time.Second)))
	incidents, _ := l.Snapshot()
	if incidents[0].Alert != "a" || !incidents[0].Resolved() {
		t.Errorf("incident a = %+v, want resolved", incidents[0])
	}
	if incidents[1].Alert != "b" || incidents[1].Resolved() {
		t.Errorf("incident b = %+v, want still open", incidents[1])
	}
}

func TestRenderTimelineInterleaves(t *testing.T) {
	l := NewLog(0)
	now := testEpoch
	l.Observe(fireAt("r", now))
	l.AttachCapture("r", CaptureRef{Session: "s1", Path: "/tmp/a.rkcp", AtNs: now.Add(time.Second).UnixNano()})
	l.Annotate("r", now.Add(2*time.Second), "worst session healed")
	l.Observe(clearAt("r", now.Add(3*time.Second)))

	var b strings.Builder
	incidents, dropped := l.Snapshot()
	RenderTimeline(&b, incidents, dropped)
	out := b.String()
	for _, want := range []string{"#1 r resolved", "capture session=s1 /tmp/a.rkcp", "worst session healed", "alert cleared"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline misses %q:\n%s", want, out)
		}
	}
	// Chronological inside the block: capture, then note, then clear.
	if strings.Index(out, "capture session=s1") > strings.Index(out, "worst session healed") ||
		strings.Index(out, "worst session healed") > strings.Index(out, "alert cleared") {
		t.Errorf("timeline lines out of order:\n%s", out)
	}
}

func TestIncidentsHandler(t *testing.T) {
	l := NewLog(0)
	l.Observe(fireAt("r", testEpoch))

	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/incidents", nil))
	assertOpsHeaders(t, rec, "application/json")
	var body struct {
		Incidents []Incident `json:"incidents"`
		Dropped   int64      `json:"dropped"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("decode /incidents: %v", err)
	}
	if len(body.Incidents) != 1 || body.Incidents[0].Alert != "r" {
		t.Errorf("/incidents body = %+v, want the open incident", body)
	}

	rec = httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/incidents?format=text", nil))
	assertOpsHeaders(t, rec, "text/plain")
	if !strings.Contains(rec.Body.String(), "r FIRING") {
		t.Errorf("text timeline = %q, want the FIRING block", rec.Body.String())
	}
}
