package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExitCode pins the -once exit contract: 0 only when every endpoint is
// healthy; any degradation, infeasibility, or blindness (unreachable or no
// verdict at all) exits 1.
func TestExitCode(t *testing.T) {
	cases := []struct {
		states []string
		want   int
	}{
		{[]string{"healthy"}, 0},
		{[]string{"healthy", "healthy"}, 0},
		{[]string{"healthy", "degraded"}, 1},
		{[]string{"infeasible"}, 1},
		{[]string{"healthy", "unreachable"}, 1},
		{[]string{"unknown"}, 1},
		{[]string{""}, 1},
		{nil, 0}, // vacuous: no endpoints asserted nothing unhealthy
	}
	for _, c := range cases {
		if got := exitCode(c.states); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.states, got, c.want)
		}
	}
}

// TestHealthRankOrdering pins the verdict severity order the exit code and
// any future worst-of reductions rely on.
func TestHealthRankOrdering(t *testing.T) {
	order := []string{"healthy", "degraded", "infeasible", "unreachable"}
	for i := 1; i < len(order); i++ {
		if healthRank(order[i-1]) >= healthRank(order[i]) {
			t.Errorf("healthRank(%q) >= healthRank(%q), want strictly increasing severity",
				order[i-1], order[i])
		}
	}
}

func TestSpark(t *testing.T) {
	if got := spark([]float64{0, 0, 0}, 30); got != "▁▁▁" {
		t.Errorf("all-zero spark = %q, want flat baseline", got)
	}
	got := spark([]float64{0, 4, 8}, 30)
	if []rune(got)[0] != '▁' || []rune(got)[2] != '█' {
		t.Errorf("spark(0,4,8) = %q, want min..max ramp", got)
	}
	// Width bound keeps only the newest values.
	if got := spark([]float64{9, 9, 9, 0}, 2); got != "█▁" {
		t.Errorf("width-bounded spark = %q, want only the last 2 values", got)
	}
}

// TestRenderIncidents drives -incidents against a canned /incidents surface:
// the timeline must come through indented, and a FIRING line must mark the
// endpoint unhealthy for the exit code.
func TestRenderIncidents(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/incidents" || req.URL.Query().Get("format") != "text" {
			http.NotFound(w, req)
			return
		}
		_, _ = w.Write([]byte("#2 fleet-session-health FIRING  opened 00:00:02.250  (ongoing)  burn fast=9.4 slow=4.7\n" +
			"  00:00:02.250  capture session=0000000000000042 /tmp/anomaly.rkcp\n"))
	}))
	defer srv.Close()

	var out strings.Builder
	s := &site{base: srv.URL}
	renderIncidents(&out, srv.Client(), s)
	if s.state != "degraded" {
		t.Errorf("a FIRING incident graded state %q, want degraded", s.state)
	}
	for _, want := range []string{"fleet-session-health FIRING", "capture session=0000000000000042"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("incidents panel missing %q:\n%s", want, out.String())
		}
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var out2 strings.Builder
	s2 := &site{base: dead.URL}
	renderIncidents(&out2, http.DefaultClient, s2)
	if s2.state != "unreachable" || !strings.Contains(out2.String(), "unreachable: ") {
		t.Errorf("dead /incidents endpoint: state %q, want unreachable and the error in the panel:\n%s", s2.state, out2.String())
	}
}

// TestCollectJSON drives the -once -format json path against a canned fleet
// endpoint: the report must carry the fleet snapshot and grade the worst
// verdict from the census.
func TestCollectJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/sessions":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"at_unix_ns":1,"window":"1s","summary":{"tracked":4,"healthy":3,"degraded":1},"top":[]}`))
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"state":"healthy"}`))
		default:
			http.NotFound(w, req)
		}
	}))
	defer srv.Close()

	s := &site{base: srv.URL}
	js := collectJSON(srv.Client(), s, true, false)
	if js.Fleet == nil || js.Fleet.Summary.Tracked != 4 {
		t.Fatalf("json report carries no fleet snapshot: %+v", js)
	}
	// The fleet census (1 degraded) outranks the daemon's own healthz.
	if js.State != "degraded" || s.state != "degraded" {
		t.Errorf("fleet json state = %q (site %q), want degraded", js.State, s.state)
	}
	if js.Health == nil || js.Health.State != "healthy" {
		t.Errorf("json report lost the daemon healthz: %+v", js.Health)
	}
}

// TestFetchHistoryResolvesLabeledKey: a bare metric name that the store
// keys with labels (name{site="0"}) resolves via the /history listing.
func TestFetchHistoryResolvesLabeledKey(t *testing.T) {
	const key = `retrolock_frame_time_ns{site="0"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch req.URL.Query().Get("series") {
		case "":
			_, _ = w.Write([]byte(`{"scalars":[],"histograms":["` +
				`retrolock_frame_time_ns{site=\"0\"}"]}`))
		case key:
			_, _ = w.Write([]byte(`{"series":"x","kind":"histogram","step_ns":1000000000,` +
				`"points":[{"at_ns":1,"value":3},{"at_ns":2,"value":7}]}`))
		default:
			http.NotFound(w, req)
		}
	}))
	defer srv.Close()

	vals, err := fetchHistory(srv.Client(), srv.URL, "retrolock_frame_time_ns", "count")
	if err != nil {
		t.Fatalf("fetchHistory: %v", err)
	}
	if len(vals) != 2 || vals[1] != 7 {
		t.Errorf("resolved fetch = %v, want [3 7]", vals)
	}
	if _, err := fetchHistory(srv.Client(), srv.URL, "retrolock_nope", ""); err == nil {
		t.Error("unknown metric resolved, want error")
	}
}
