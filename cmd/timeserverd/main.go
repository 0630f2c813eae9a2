// Command timeserverd runs the measurement time server of the paper's
// testbed (§4): gaming sites send one datagram per frame begin, the server
// timestamps them on arrival, and prints frame-time and synchrony statistics
// when the configured duration elapses.
//
//	timeserverd -listen :7100 -duration 2m -sites 0,1
package main

import (
	"flag"
	"log"
	"strconv"
	"strings"
	"time"

	"retrolock/internal/metrics"
	"retrolock/internal/obs"
	"retrolock/internal/timeserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("timeserverd: ")
	var (
		listen   = flag.String("listen", ":7100", "UDP address to serve on")
		duration = flag.Duration("duration", time.Minute, "how long to record before reporting")
		sites    = flag.String("sites", "0,1", "comma-separated site numbers to report")
		obsAddr  = flag.String("obs", "", "serve metrics/expvar/pprof on this HTTP address (e.g. :6060)")
	)
	flag.Parse()

	ids, err := parseSites(*sites)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := timeserver.ListenUDP(*listen)
	if err != nil {
		log.Fatal(err)
	}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		timeserver.RegisterMetrics(reg, srv)
		obs.RegisterProcessMetrics(reg)
		osrv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer osrv.Close()
		log.Printf("observability on http://%s/", osrv.Addr())
	}
	log.Printf("recording frame reports on %s for %v", srv.Addr(), *duration)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	time.Sleep(*duration)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	for _, site := range ids {
		var s metrics.Series
		for _, d := range srv.FrameTimes(site) {
			s.AddDuration(d)
		}
		sum := s.Summarize()
		log.Printf("site %d: %d frames, avg frame time %.2fms (%.1f FPS), avg deviation %.2fms",
			site, len(srv.Samples(site)), sum.Mean, metrics.FPS(sum.Mean), sum.MAD)
	}
	if len(ids) >= 2 {
		var s metrics.Series
		for _, d := range srv.SyncDiffs(ids[0], ids[1]) {
			s.AddDuration(d)
		}
		log.Printf("sites %d vs %d: avg |frame-time difference| %.2fms over %d frames",
			ids[0], ids[1], s.Summarize().AbsMean, s.Len())
	}
}

func parseSites(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
