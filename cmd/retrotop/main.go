// Command retrotop is a live terminal dashboard for running retrolock
// sessions. It polls the observability endpoint each site exposes (retroplay
// -obs, or any obs.Serve registry) and renders the numbers the paper's
// feasibility argument turns on: frame rate, cross-site input latency and
// skew quantiles, RTT, ARQ pressure, and the health SLO verdict. Point it at
// both sites to watch a session from both ends:
//
//	retrotop http://siteA:9090 http://siteB:9091
//
// Flags:
//
//	-interval   poll period (default 1s); quantiles are windowed per poll
//	-once       print a single snapshot and exit; the exit status reports the
//	            worst health verdict seen (0 all healthy, 1 otherwise)
//	-format     -once output shape: table (default) or json
//	-fleet      poll a relayd ops surface instead of per-site session panels
//	-incidents  render the endpoint's incident timeline (/incidents) instead
//	            of the live panels
//
// Fleet mode points at a relayd -obs endpoint and renders the aggregator's
// verdict census plus its top-K-worst session table:
//
//	retrotop -fleet http://relayhost:6060
//
// Panels grow sparkline columns when the endpoint retains history (the
// /history surface): per-site frame throughput, and the fleet's degraded
// session count over the last minute.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"retrolock/internal/relay"
)

var (
	interval  = flag.Duration("interval", time.Second, "poll period")
	once      = flag.Bool("once", false, "print one snapshot and exit (status reflects worst health)")
	format    = flag.String("format", "table", "-once output: table or json")
	fleet     = flag.Bool("fleet", false, "poll a relayd fleet ops surface (/sessions)")
	incidents = flag.Bool("incidents", false, "render the endpoint's incident timeline (/incidents)")
)

// healthz mirrors obs.HealthSignals' JSON shape.
type healthz struct {
	State           string  `json:"state"`
	Window          int64   `json:"window"`
	RTTp50          int64   `json:"rtt_p50_ns"`
	SkewQ           int64   `json:"skew_q_ns"`
	FrameMean       int64   `json:"frame_mean_ns"`
	RetransPerFrame float64 `json:"retrans_per_frame"`
	Transitions     int64   `json:"transitions"`
}

// site is one polled endpoint and its previous scrape (for windowed rates).
type site struct {
	base   string
	prev   *snapshot
	prevAt time.Time
	state  string // last verdict: healthy/degraded/infeasible/unreachable/unknown
}

// healthRank orders verdicts for the exit status; anything unknown or
// unreachable ranks worst — a monitor that cannot see its target must not
// report green.
func healthRank(state string) int {
	switch state {
	case "healthy":
		return 0
	case "degraded":
		return 1
	case "infeasible":
		return 2
	default:
		return 3
	}
}

// exitCode maps the worst verdict across all polled endpoints onto the
// -once exit status: 0 only when every endpoint graded healthy.
func exitCode(states []string) int {
	for _, s := range states {
		if healthRank(s) > 0 {
			return 1
		}
	}
	return 0
}

// worstFleetState collapses a verdict census to one state string.
func worstFleetState(sum relay.FleetSummary) string {
	switch {
	case sum.Infeasible > 0:
		return "infeasible"
	case sum.Degraded > 0:
		return "degraded"
	default:
		return "healthy"
	}
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: retrotop [flags] <endpoint> [endpoint]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		flag.Usage()
		os.Exit(2)
	}
	sites := make([]*site, flag.NArg())
	for i, arg := range flag.Args() {
		if !strings.Contains(arg, "://") {
			arg = "http://" + arg
		}
		sites[i] = &site{base: strings.TrimRight(arg, "/")}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "retrotop: bad -format %q (want table or json)\n", *format)
		os.Exit(2)
	}
	if *format == "json" && !*once {
		fmt.Fprintln(os.Stderr, "retrotop: -format json requires -once")
		os.Exit(2)
	}

	if *once && *format == "json" {
		states := make([]string, len(sites))
		reports := make([]jsonSite, len(sites))
		for i, s := range sites {
			reports[i] = collectJSON(client, s, *fleet, *incidents)
			states[i] = s.state
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			At    string     `json:"at"`
			Sites []jsonSite `json:"sites"`
		}{time.Now().Format(time.RFC3339), reports})
		os.Exit(exitCode(states))
	}

	for {
		var out strings.Builder
		if !*once {
			out.WriteString("\033[H\033[2J") // clear terminal
		}
		fmt.Fprintf(&out, "retrotop  %s  every %v\n", time.Now().Format("15:04:05"), *interval)
		for _, s := range sites {
			switch {
			case *incidents:
				renderIncidents(&out, client, s)
			case *fleet:
				renderFleet(&out, client, s)
			default:
				renderSite(&out, client, s)
			}
		}
		os.Stdout.WriteString(out.String())
		if *once {
			states := make([]string, len(sites))
			for i, s := range sites {
				states[i] = s.state
			}
			os.Exit(exitCode(states))
		}
		time.Sleep(*interval)
	}
}

// jsonSite is one endpoint's -once -format json report.
type jsonSite struct {
	Endpoint string               `json:"endpoint"`
	State    string               `json:"state"`
	Error    string               `json:"error,omitempty"`
	Health   *healthz             `json:"health,omitempty"`
	Fleet    *relay.FleetSnapshot `json:"fleet,omitempty"`
}

// collectJSON polls one endpoint for the machine-readable snapshot, setting
// the site's verdict the same way the table renderers do.
func collectJSON(client *http.Client, s *site, fleetMode, incidentMode bool) jsonSite {
	js := jsonSite{Endpoint: s.base}
	if hz, err := fetchHealthz(client, s.base+"/healthz"); err == nil {
		js.Health = hz
		s.state = hz.State
	} else {
		s.state = "unknown"
	}
	if fleetMode {
		snap, err := fetchFleet(client, s.base+"/sessions?format=json")
		if err != nil {
			s.state = "unreachable"
			js.Error, js.State = err.Error(), s.state
			return js
		}
		js.Fleet = snap
		s.state = worstFleetState(snap.Summary)
	} else if !incidentMode && js.Health == nil {
		// Session mode with no /healthz: fall back to reachability.
		if _, err := scrape(client, s.base+"/metrics"); err != nil {
			s.state = "unreachable"
			js.Error = err.Error()
		}
	}
	js.State = s.state
	return js
}

// renderIncidents prints the endpoint's incident timeline — the same text
// /incidents?format=text serves, indented into the panel layout.
func renderIncidents(out *strings.Builder, client *http.Client, s *site) {
	fmt.Fprintf(out, "\n%s\n", s.base)
	resp, err := client.Get(s.base + "/incidents?format=text")
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/incidents: %s", resp.Status)
	}
	if err != nil {
		s.state = "unreachable"
		fmt.Fprintf(out, "  unreachable: %v\n", err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	s.state = "healthy"
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		fmt.Fprintf(out, "  %s\n", line)
		if strings.Contains(line, "FIRING") {
			s.state = "degraded"
		}
	}
}

// renderFleet scrapes a relayd /sessions surface and appends the fleet
// panel: the verdict census plus the aggregator's top-K-worst table, in the
// same fixed-width layout relayd serves as text.
func renderFleet(out *strings.Builder, client *http.Client, s *site) {
	fmt.Fprintf(out, "\n%s\n", s.base)
	snap, err := fetchFleet(client, s.base+"/sessions?format=json")
	if err != nil {
		s.state = "unreachable"
		fmt.Fprintf(out, "  unreachable: %v\n", err)
		return
	}
	s.state = worstFleetState(snap.Summary)
	for _, line := range strings.Split(strings.TrimRight(relay.RenderTable(snap), "\n"), "\n") {
		fmt.Fprintf(out, "  %s\n", line)
	}
	if sp := sparkFromHistory(client, s.base, `retrolock_relay_session_verdicts{state="degraded"}`, ""); sp != "" {
		fmt.Fprintf(out, "  degraded %s (last minute)\n", sp)
	}
}

func fetchFleet(client *http.Client, url string) (*relay.FleetSnapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var snap relay.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// renderSite scrapes one endpoint and appends its panel.
func renderSite(out *strings.Builder, client *http.Client, s *site) {
	fmt.Fprintf(out, "\n%s\n", s.base)
	cur, err := scrape(client, s.base+"/metrics")
	if err != nil {
		s.state = "unreachable"
		fmt.Fprintf(out, "  unreachable: %v\n", err)
		return
	}
	now := time.Now()
	prev, prevAt := s.prev, s.prevAt
	s.prev, s.prevAt = cur, now

	hz, hzErr := fetchHealthz(client, s.base+"/healthz")
	switch {
	case hzErr != nil:
		s.state = "unknown"
		fmt.Fprintf(out, "  health: (no /healthz: %v)\n", hzErr)
	default:
		s.state = hz.State
		fmt.Fprintf(out, "  health: %-10s window %d  rtt p50 %s  skew %s  frame %s  retrans/frame %.2f  flips %d\n",
			strings.ToUpper(hz.State), hz.Window, ms(float64(hz.RTTp50)), ms(float64(hz.SkewQ)),
			ms(float64(hz.FrameMean)), hz.RetransPerFrame, hz.Transitions)
	}

	frame, _ := cur.get("retrolock_frame")
	fps := 0.0
	if prev != nil {
		if pf, ok := prev.get("retrolock_frame"); ok && now.After(prevAt) {
			fps = (frame - pf) / now.Sub(prevAt).Seconds()
		}
	}
	fmt.Fprintf(out, "  frame %-8.0f fps %5.1f  %s\n", frame, fps,
		sparkFromHistory(client, s.base, "retrolock_frame_time_ns", "count"))

	// Windowed histogram quantiles: each poll grades only the samples that
	// arrived since the previous poll.
	q := func(name string, qq float64) string {
		h := cur.hist(name)
		if h == nil {
			return "-"
		}
		var ph *histSnap
		if prev != nil {
			ph = prev.hist(name)
		}
		v := h.quantileSince(ph, qq)
		if v == 0 {
			return "-"
		}
		return ms(v)
	}
	fmt.Fprintf(out, "  input  cross p50 %s  p90 %s   local p50 %s   net p50 %s   skew p90 %s\n",
		q("retrolock_input_latency_ns", 0.5), q("retrolock_input_latency_ns", 0.9),
		q("retrolock_local_latency_ns", 0.5), q("retrolock_net_latency_ns", 0.5),
		q("retrolock_exec_skew_ns", 0.9))
	fmt.Fprintf(out, "  timing frame p90 %s   stall p90 %s   rtt p50 %s\n",
		q("retrolock_frame_time_ns", 0.9), q("retrolock_stall_ns", 0.9),
		q("retrolock_rtt_ns", 0.5))

	if unacked, ok := cur.get("retrolock_arq_unacked"); ok {
		retrans, _ := cur.get("retrolock_arq_retransmissions")
		rate := 0.0
		if prev != nil {
			if pr, ok := prev.get("retrolock_arq_retransmissions"); ok && now.After(prevAt) {
				rate = (retrans - pr) / now.Sub(prevAt).Seconds()
			}
		}
		fmt.Fprintf(out, "  arq    unacked %.0f  retrans %.0f (%.1f/s)\n", unacked, retrans, rate)
	}
	if desync, ok := cur.get("retrolock_desync_total"); ok && desync > 0 {
		fmt.Fprintf(out, "  !! desync incidents: %.0f\n", desync)
	}
}

func scrape(client *http.Client, url string) (*snapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func fetchHealthz(client *http.Client, url string) (*healthz, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// 503 is the infeasible verdict, still a valid body.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	var hz healthz
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return nil, err
	}
	return &hz, nil
}

// ms renders a nanosecond quantity as milliseconds.
func ms(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", ns/1e6)
}

// historyPoints is the slice retrotop needs from a /history response.
type historyPoints struct {
	Points []struct {
		Value float64 `json:"value"`
	} `json:"points"`
}

// fetchHistory pulls the last minute of one series from the endpoint's
// /history surface. stat is the histogram reduction ("" for scalars). A
// bare metric name that 404s (the store keys labeled series as
// name{k="v"}) is resolved once against the /history listing by prefix —
// retrotop does not know a site's label set in advance.
func fetchHistory(client *http.Client, base, series, stat string) ([]float64, error) {
	q := url.Values{"series": {series}, "window": {"60s"}}
	if stat != "" {
		q.Set("stat", stat)
	}
	resp, err := client.Get(base + "/history?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && !strings.Contains(series, "{") {
		if key, ok := resolveHistoryKey(client, base, series); ok {
			return fetchHistory(client, base, key, stat)
		}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/history: %s", resp.Status)
	}
	var hp historyPoints
	if err := json.NewDecoder(resp.Body).Decode(&hp); err != nil {
		return nil, err
	}
	vals := make([]float64, len(hp.Points))
	for i, p := range hp.Points {
		vals[i] = p.Value
	}
	return vals, nil
}

// resolveHistoryKey finds the first retained series key carrying the given
// metric name (exact, or name{...} with any label set).
func resolveHistoryKey(client *http.Client, base, name string) (string, bool) {
	resp, err := client.Get(base + "/history")
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var list struct {
		Scalars    []string `json:"scalars"`
		Histograms []string `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return "", false
	}
	for _, keys := range [][]string{list.Scalars, list.Histograms} {
		for _, k := range keys {
			if strings.HasPrefix(k, name+"{") {
				return k, true
			}
		}
	}
	return "", false
}

// sparkFromHistory renders one series as a sparkline, or "" when the
// endpoint retains no history (older daemons) — panels degrade gracefully.
func sparkFromHistory(client *http.Client, base, series, stat string) string {
	vals, err := fetchHistory(client, base, series, stat)
	if err != nil || len(vals) == 0 {
		return ""
	}
	return spark(vals, 30)
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders the last width values scaled against their own maximum.
// All-zero input renders as a flat baseline.
func spark(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 && v > 0 {
			i = int(v / max * float64(len(sparkLevels)-1))
			if i >= len(sparkLevels) {
				i = len(sparkLevels) - 1
			}
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}
