package relay

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
)

// stepClock is a hand-cranked vclock.Clock for single-goroutine fleet
// tests: Tick/Step instants are exactly what the test sets, so grading
// windows are fully deterministic.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Sleep(d time.Duration) { c.advance(d) }

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// fleetHarness drives an unstarted stats-enabled daemon plus a fleet by
// hand: every datagram, shard step and grading tick happens at an explicit
// virtual instant on the test goroutine.
type fleetHarness struct {
	t   *testing.T
	clk *stepClock
	d   *Daemon
	f   *Fleet
	ms  []Message
}

func newFleetHarness(t *testing.T, cfg Config, fcfg FleetConfig) *fleetHarness {
	t.Helper()
	clk := &stepClock{t: time.Unix(1_000_000, 0)}
	cfg.Clock = clk
	cfg.Stats = true
	if cfg.AutoCaptureRecords == 0 && cfg.AutoCaptureBytes == 0 {
		cfg.AutoCaptureRecords = 32
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	d, err := NewDaemon(cfg, []Front{nullTestFront{}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(d, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &fleetHarness{t: t, clk: clk, d: d, f: f, ms: make([]Message, 1)}
	h.ms[0].Buf = getBuf()
	t.Cleanup(func() { d.Close() })
	return h
}

// nullTestFront discards sends; the harness never starts the daemon's
// loops, so Recv is never called.
type nullTestFront struct{}

func (nullTestFront) Recv(ms []Message) (int, error) { select {} }
func (nullTestFront) Send(ms []Message) (int, error) { return len(ms), nil }
func (nullTestFront) LocalAddr() string              { return "null:0" }
func (nullTestFront) Close() error                   { return nil }

func siteAddr(tok Token, site int) Addr {
	return Addr{Sim: fmt.Sprintf("%s-%d", tok, site)}
}

// place admits one session and binds both sites with header-only datagrams.
func (h *fleetHarness) place() Token {
	h.t.Helper()
	p, err := h.d.Place()
	if err != nil {
		h.t.Fatal(err)
	}
	h.send(p.Token, 0, 0)
	h.send(p.Token, 1, 0)
	h.step()
	return p.Token
}

// send routes one datagram (payload bytes of n) from the session's home
// address for site.
func (h *fleetHarness) send(tok Token, site, n int) {
	buf := h.ms[0].Buf[:MaxDatagram]
	hl := PutHeader(buf, tok, site)
	for i := 0; i < n; i++ {
		buf[hl+i] = byte(i)
	}
	h.ms[0] = Message{Buf: buf[:hl+n], Addr: siteAddr(tok, site)}
	h.d.Route(h.ms, 1)
}

// step runs every shard loop body once.
func (h *fleetHarness) step() {
	for _, sh := range h.d.Shards() {
		sh.Step()
	}
}

// drive sends both sites' payloads at the given cadence until d has
// elapsed, stepping the shards after every instant.
func (h *fleetHarness) drive(d, cadence time.Duration, toks ...Token) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += cadence {
		h.clk.advance(cadence)
		for _, tok := range toks {
			h.send(tok, 0, 4)
			h.send(tok, 1, 4)
		}
		h.step()
	}
}

// TestFleetGradesDegradedSession: a session pacing at the frame target
// stays healthy; a session pacing inside the degraded band flips, lands in
// the top-K table, and its anomaly ring is captured exactly once — with
// every bundle record decoding back to the session's token.
func TestFleetGradesDegradedSession(t *testing.T) {
	var caps []AnomalyCapture
	h := newFleetHarness(t, Config{}, FleetConfig{
		Window:    250 * time.Millisecond,
		TopK:      4,
		OnCapture: func(ac AnomalyCapture) { caps = append(caps, ac) },
	})
	good, bad := h.place(), h.place()

	// Defaults grade the gap against FrameTarget 16.67 ms (+5 ms degraded,
	// +11 ms infeasible): an 8 ms gap is healthy, 24 ms sits inside the
	// degraded band (21.67–27.67 ms).
	for w := 0; w < 4; w++ {
		for i := 0; i < 30; i++ { // 30 × 8 ms = one 240 ms window
			h.clk.advance(8 * time.Millisecond)
			h.send(good, 0, 4)
			h.send(good, 1, 4)
			if i%3 == 0 { // 24 ms cadence
				h.send(bad, 0, 4)
				h.send(bad, 1, 4)
			}
			h.step()
		}
		h.f.Tick(h.clk.Now())
	}

	if d, ok := h.f.Detail(good); !ok || d.Verdict != obs.Healthy.String() {
		t.Fatalf("good session verdict = %v (tracked %v), want healthy", d.Verdict, ok)
	}
	if d, ok := h.f.Detail(bad); !ok || d.Verdict != obs.Degraded.String() {
		t.Fatalf("bad session verdict = %v (tracked %v), want degraded", d.Verdict, ok)
	}
	snap := h.f.Snapshot()
	if snap.Summary.Tracked != 2 || snap.Summary.Healthy != 1 || snap.Summary.Degraded != 1 {
		t.Fatalf("summary = %+v, want 2 tracked / 1 healthy / 1 degraded", snap.Summary)
	}
	if len(snap.Top) != 1 || snap.Top[0].Token != bad.String() {
		t.Fatalf("top-K = %+v, want exactly the degraded session", snap.Top)
	}
	if len(caps) != 1 {
		t.Fatalf("got %d anomaly captures, want 1", len(caps))
	}
	if caps[0].Token != bad || caps[0].State != obs.Degraded {
		t.Fatalf("capture = token %s state %v, want %s degraded", caps[0].Token, caps[0].State, bad)
	}
	c := caps[0].Capture
	if c.Meta.Session != bad.String() || c.Meta.Verdict != "degraded" {
		t.Fatalf("bundle meta = %+v, want session %s verdict degraded", c.Meta, bad)
	}
	if len(c.Records) == 0 {
		t.Fatal("bundle holds no traffic")
	}
	for i, rec := range c.Records {
		tok, _, _, ok := ParseHeader(rec.Payload)
		if !ok || tok != bad {
			t.Fatalf("bundle record %d does not decode to session %s", i, bad)
		}
	}
}

// TestFleetStallAndRecovery: silence past two grading windows grades infeasible even
// though every histogram signal abstains; resumed clean traffic recovers
// through hysteresis.
func TestFleetStallAndRecovery(t *testing.T) {
	h := newFleetHarness(t, Config{}, FleetConfig{
		Window: 250 * time.Millisecond,
	})
	tok := h.place()
	h.drive(time.Second, 16*time.Millisecond, tok)
	h.f.Tick(h.clk.Now())
	if d, _ := h.f.Detail(tok); d.Verdict != obs.Healthy.String() {
		t.Fatalf("verdict after clean traffic = %v, want healthy", d.Verdict)
	}

	// Silence: advance a full second with no datagrams, ticking each window.
	for i := 0; i < 4; i++ {
		h.clk.advance(250 * time.Millisecond)
		h.step()
		h.f.Tick(h.clk.Now())
	}
	if d, _ := h.f.Detail(tok); d.Verdict != obs.Infeasible.String() {
		t.Fatalf("verdict after 1 s of silence = %v, want infeasible (stall)", d.Verdict)
	}
	if snap := h.f.Snapshot(); snap.Summary.Stalled != 1 {
		t.Fatalf("summary = %+v, want 1 stalled", snap.Summary)
	}

	// Recovery: clean cadence again. The first window's gap histogram
	// contains the giant stall gap, so recovery takes three clean
	// windows after that.
	for w := 0; w < 6; w++ {
		h.drive(250*time.Millisecond, 16*time.Millisecond, tok)
		h.f.Tick(h.clk.Now())
	}
	if d, _ := h.f.Detail(tok); d.Verdict != obs.Healthy.String() {
		t.Fatalf("verdict after recovery = %v, want healthy", d.Verdict)
	}
}

// TestFleetChurn: sessions leaving and rejoining mid-window must not wedge
// the aggregator or leak grading state — the fleet's map tracks exactly the
// live sessions, pooled stat blocks recycle across placements, and a
// departed session's token 404s on the detail surface.
func TestFleetChurn(t *testing.T) {
	h := newFleetHarness(t, Config{Shards: 2}, FleetConfig{Window: 250 * time.Millisecond})
	const n = 32
	toks := make([]Token, n)
	for i := range toks {
		toks[i] = h.place()
	}
	h.drive(500*time.Millisecond, 20*time.Millisecond, toks...)
	h.f.Tick(h.clk.Now())
	if got := h.f.Snapshot().Summary.Tracked; got != n {
		t.Fatalf("tracked = %d, want %d", got, n)
	}

	// Close half mid-window, then churn: every closed slot is re-placed.
	for i := 0; i < n/2; i++ {
		h.d.CloseSession(toks[i])
	}
	h.step() // applies the closes and republishes tables
	if got := h.d.Sessions(); got != n/2 {
		t.Fatalf("daemon sessions = %d after close, want %d", got, n/2)
	}
	h.f.Tick(h.clk.Now())
	if got := h.f.Snapshot().Summary.Tracked; got != n/2 {
		t.Fatalf("tracked = %d after churn, want %d (leaked grading state)", got, n/2)
	}
	if _, ok := h.f.Detail(toks[0]); ok {
		t.Fatal("closed session still tracked")
	}

	rejoined := make([]Token, n/2)
	for i := range rejoined {
		rejoined[i] = h.place() // pulls recycled stat blocks from the pool
	}
	h.drive(500*time.Millisecond, 20*time.Millisecond, append(rejoined, toks[n/2:]...)...)
	h.f.Tick(h.clk.Now())
	if got := h.f.Snapshot().Summary.Tracked; got != n {
		t.Fatalf("tracked = %d after rejoin, want %d", got, n)
	}
	// A recycled block must not leak the previous tenant's counters.
	det, ok := h.f.Detail(rejoined[0])
	if !ok {
		t.Fatal("rejoined session not tracked")
	}
	if want := int64(25); det.In[0] > want+2 || det.In[0] < want-2 {
		t.Fatalf("rejoined session in[0] = %d, want ≈%d (stale pooled counters?)", det.In[0], want)
	}
	// Per-shard published tables mirror Active exactly.
	for _, sh := range h.d.Shards() {
		if got, want := len(sh.sessionTable()), sh.Active(); got != want {
			t.Fatalf("shard %d table %d entries, active %d", sh.idx, got, want)
		}
	}
	snap := h.f.Snapshot()
	if snap.Summary.Tracked != n || snap.Summary.Healthy != n {
		t.Fatalf("summary after churn = %+v, want %d tracked all healthy", snap.Summary, n)
	}
}

// TestFleetCaptureRateLimit: a second flip inside captureEvery defers its
// bundle (counted suppressed) and FlushPending emits it at shutdown.
func TestFleetCaptureRateLimit(t *testing.T) {
	var caps []AnomalyCapture
	h := newFleetHarness(t, Config{}, FleetConfig{
		Window:       250 * time.Millisecond,
		captureEvery: time.Hour,
		captureLimit: 8,
		OnCapture:    func(ac AnomalyCapture) { caps = append(caps, ac) },
	})
	a, b := h.place(), h.place()
	// Both sessions pace in the degraded band; both flip on the same tick,
	// only one capture fits the rate limit.
	for w := 0; w < 3; w++ {
		h.drive(250*time.Millisecond, 25*time.Millisecond, a, b)
		h.f.Tick(h.clk.Now())
	}
	if len(caps) != 1 {
		t.Fatalf("got %d captures under rate limit, want 1", len(caps))
	}
	snap := h.f.Snapshot()
	if snap.Summary.Suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", snap.Summary.Suppressed)
	}
	if n := h.f.FlushPending(h.clk.Now()); n != 1 {
		t.Fatalf("FlushPending emitted %d bundles, want 1", n)
	}
	if len(caps) != 2 {
		t.Fatalf("got %d captures after flush, want 2", len(caps))
	}
	if caps[0].Token == caps[1].Token {
		t.Fatal("both bundles captured the same session")
	}
}

// TestFleetHTTP: the /sessions surface end to end through the obs mux —
// summary text, JSON snapshot, per-session detail, and the error paths.
func TestFleetHTTP(t *testing.T) {
	h := newFleetHarness(t, Config{}, FleetConfig{Window: 250 * time.Millisecond})
	tok := h.place()
	h.drive(time.Second, 25*time.Millisecond, tok) // degraded band
	h.f.Tick(h.clk.Now())

	r := obs.NewRegistry()
	h.f.Register(r)
	srv := httptest.NewServer(obs.NewMux(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/sessions")
	if code != 200 || !strings.Contains(body, "fleet: 1 tracked") {
		t.Fatalf("GET /sessions = %d %q", code, body)
	}
	if !strings.Contains(body, tok.String()) {
		t.Fatalf("top-K table misses the degraded session: %q", body)
	}

	code, body = get("/sessions?format=json")
	if code != 200 {
		t.Fatalf("GET /sessions?format=json = %d", code)
	}
	var snap FleetSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if snap.Summary.Degraded != 1 || len(snap.Top) != 1 {
		t.Fatalf("JSON snapshot = %+v", snap)
	}

	code, body = get("/sessions/" + tok.String())
	if code != 200 {
		t.Fatalf("GET /sessions/<token> = %d %q", code, body)
	}
	var det SessionDetail
	if err := json.Unmarshal([]byte(body), &det); err != nil {
		t.Fatal(err)
	}
	if det.Verdict != "degraded" || det.Bound != "AB" {
		t.Fatalf("detail = %+v, want degraded, bound AB", det)
	}

	if code, _ := get("/sessions/ffffffffffffffff"); code != 404 {
		t.Fatalf("unknown token = %d, want 404", code)
	}
	if code, _ := get("/sessions/not-hex"); code != 400 {
		t.Fatalf("bad token = %d, want 400", code)
	}

	code, body = get("/metrics")
	if code != 200 || !strings.Contains(body, MetricSessionVerdicts+`{state="degraded"} 1`) {
		t.Fatalf("metrics miss fleet series: %d", code)
	}
}

// TestSessionsHandlerHeaders pins the ops-surface header contract: explicit
// Content-Type per format and Cache-Control: no-store — a fleet census is
// only good for the instant it was served.
func TestSessionsHandlerHeaders(t *testing.T) {
	h := newFleetHarness(t, Config{}, FleetConfig{Window: 250 * time.Millisecond})
	tok := h.place()
	h.drive(time.Second, 25*time.Millisecond, tok)
	h.f.Tick(h.clk.Now())

	cases := []struct {
		handler  http.Handler
		target   string
		wantType string
	}{
		{h.f.SessionsHandler(), "/sessions", "text/plain"},
		{h.f.SessionsHandler(), "/sessions?format=json", "application/json"},
		{h.f.SessionDetailHandler(), "/sessions/" + tok.String(), "application/json"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		c.handler.ServeHTTP(rec, httptest.NewRequest("GET", c.target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d, want 200", c.target, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, c.wantType) {
			t.Errorf("GET %s Content-Type = %q, want %s", c.target, ct, c.wantType)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", c.target, cc)
		}
	}
}

// TestSelfCaptureBytesGauge reads the capture taps' self-cost gauge back
// against the taps' own accounting: the recorder's records and its distinct
// payload bytes, and, for rings that have not wrapped, each hosted session's
// retained records and payloads. A closed session's ring leaves the sum.
func TestSelfCaptureBytesGauge(t *testing.T) {
	const slot = 16 // bytes per capture record slot (capture.TestRecIs16Bytes)
	tap := capture.NewRecorder(1<<10, 1<<16)
	h := newFleetHarness(t, Config{Tap: tap, AutoCaptureRecords: 32}, FleetConfig{})
	a, b := h.place(), h.place()
	for i := 0; i < 5; i++ {
		h.clk.advance(time.Millisecond)
		h.send(a, 0, 33)
		h.send(a, 1, 7)
		h.send(b, 0, 20)
		h.step()
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg, h.d)
	read := func(tapLabel string) float64 {
		return reg.Snapshot()[obs.Key(MetricSelfCaptureBytes, obs.Labels{"tap": tapLabel})]
	}
	ringBytes := func(toks ...Token) (n int) {
		for _, sh := range h.d.Shards() {
			for _, ref := range sh.sessionTable() {
				for _, tok := range toks {
					if ref.token == tok {
						c := ref.stats.ring.Snapshot(capture.Meta{})
						n += slot * len(c.Records)
						for _, r := range c.Records {
							n += len(r.Payload)
						}
					}
				}
			}
		}
		return n
	}

	// Both sites are bound before any payload flows, so every forward is
	// direct and its DirSend record shares its DirRecv record's bytes: the
	// recorder holds each received datagram's payload once.
	recorded := tap.Snapshot(capture.Meta{}).Records
	want := slot * len(recorded)
	for _, r := range recorded {
		if r.Dir == capture.DirRecv {
			want += len(r.Payload)
		}
	}
	if got := read("recorder"); got != float64(want) || len(recorded) == 0 {
		t.Errorf("recorder gauge = %v, want %v (%d records and their received payloads)", got, want, len(recorded))
	}
	if got, want := read("rings"), float64(ringBytes(a, b)); got != want || want == 0 {
		t.Errorf("rings gauge = %v, want %v", got, want)
	}
	h.d.CloseSession(a)
	h.step()
	if got, want := read("rings"), float64(ringBytes(b)); got != want || want == 0 {
		t.Errorf("rings gauge after closing a session = %v, want %v", got, want)
	}
}
