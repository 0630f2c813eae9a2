// Command lobbyd runs the rendezvous server that lets two retroplay clients
// find each other by a shared session code (§2's "games lobby").
//
//	lobbyd -listen :7200
package main

import (
	"flag"
	"log"
	"time"

	"retrolock/internal/lobby"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lobbyd: ")
	listen := flag.String("listen", ":7200", "UDP address to serve on")
	obsAddr := flag.String("obs", "", "serve metrics/expvar/pprof on this HTTP address (e.g. :6060)")
	flag.Parse()

	srv, err := lobby.ListenConfig(*listen, lobby.Config{})
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{}) // closed when Serve returns; stops the sampler
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		lobby.RegisterMetrics(reg, srv)
		obs.RegisterProcessMetrics(reg)
		// Retain every lobby series at multiple resolutions (/history). No
		// alert rules — admission has no error budget to burn; trends are
		// what an operator wants here.
		go sample(history.Wire(reg, history.Options{}), done)
		osrv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer osrv.Close()
		log.Printf("observability on http://%s/ (metrics, history, incidents, pprof)", osrv.Addr())
	}
	log.Printf("serving rendezvous on %s", srv.Addr())
	err = srv.Serve()
	close(done)
	if err != nil {
		log.Fatal(err)
	}
}

// sample feeds the history store once per base step until done is closed.
func sample(hist *history.Service, done <-chan struct{}) {
	tick := time.NewTicker(hist.Store.BaseStep())
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-tick.C:
			hist.Sample(now)
		}
	}
}
