package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"retrolock/internal/relay"
)

// TestRenderFleet drives fleet mode against a canned relayd /sessions
// surface: the JSON snapshot must round-trip into the same summary and
// top-K rows relayd renders locally.
func TestRenderFleet(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/sessions" || req.URL.Query().Get("format") != "json" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{
			"at_unix_ns": 1000000000,
			"window": "1s",
			"summary": {"tracked": 3, "healthy": 2, "degraded": 1, "infeasible": 0, "stalled": 0,
				"graded_total": 12, "flips_total": 1, "captures_total": 1, "captures_suppressed_total": 0},
			"top": [{"token": "00000000000004c1", "shard": 1, "verdict": "degraded",
				"since_seen_ns": 20000000, "gap_mean_ns": 70000000, "residence_p50_ns": 100000,
				"in": 120, "forwarded": 118, "parked": 2, "dropped": 0, "bound": "AB", "flips": 1}]
		}`))
	}))
	defer srv.Close()

	var out strings.Builder
	s := &site{base: srv.URL}
	renderFleet(&out, srv.Client(), s)
	if s.state != "degraded" {
		t.Fatalf("renderFleet graded state %q, want degraded:\n%s", s.state, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"fleet: 3 tracked  2 healthy  1 degraded  0 infeasible",
		"00000000000004c1",
		"degraded",
		"70.0", // gap mean in ms
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fleet panel missing %q:\n%s", want, got)
		}
	}
}

// TestRenderFleetUnreachable pins the error path: a dead endpoint marks the
// site failed (so -once exits nonzero) and renders a diagnostic, not a
// panic or empty panel.
func TestRenderFleetUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead on arrival

	var out strings.Builder
	s := &site{base: srv.URL}
	renderFleet(&out, http.DefaultClient, s)
	if s.state != "unreachable" {
		t.Fatalf("renderFleet against a closed server graded state %q, want unreachable", s.state)
	}
	if !strings.Contains(out.String(), "unreachable") {
		t.Errorf("fleet panel does not surface the failure:\n%s", out.String())
	}
}

// TestRenderFleetTableShape pins RenderTable itself on an empty fleet: the
// header lines must render and the table must say so rather than print an
// empty grid.
func TestRenderFleetTableShape(t *testing.T) {
	got := relay.RenderTable(&relay.FleetSnapshot{Window: "500ms"})
	if !strings.Contains(got, "fleet: 0 tracked") || !strings.Contains(got, "no unhealthy sessions") {
		t.Errorf("empty-fleet table rendered:\n%s", got)
	}
}
