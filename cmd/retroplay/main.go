// Command retroplay runs a two-player RK-32 game session over a real
// network, the live counterpart of the paper's system: both machines load
// the same ROM, exchange inputs over UDP with the lockstep sync module, and
// render to the terminal.
//
// Start the two sites (order does not matter):
//
//	retroplay -game pong -site 0 -listen :7000 -peer 192.0.2.2:7000
//	retroplay -game pong -site 1 -listen :7000 -peer 192.0.2.1:7000
//
// Or rendezvous through a lobby (see cmd/lobbyd):
//
//	retroplay -game pong -site 0 -lobby lobby.example:7200 -session mygame
//	retroplay -game pong -site 1 -lobby lobby.example:7200 -session mygame
//
// Terminals cannot deliver raw gamepad state portably, so -input selects a
// synthetic player: "bot" plays a deterministic pattern, "random" mashes
// buttons, "idle" does nothing. The point of the binary is the distributed
// system, not the joystick.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/lobby"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/relay"
	"retrolock/internal/replay"
	"retrolock/internal/rig"
	"retrolock/internal/rom"
	"retrolock/internal/rom/games"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("retroplay: ")
	var (
		game     = flag.String("game", "pong", "built-in game to play ("+strings.Join(games.Names(), ", ")+")")
		romPath  = flag.String("rom", "", "path to a .rk32 ROM image (overrides -game)")
		site     = flag.Int("site", 0, "this site's number (0 = master, 1 = slave)")
		listen   = flag.String("listen", ":7000", "local UDP address")
		peer     = flag.String("peer", "", "remote site's UDP address")
		lobbySrv = flag.String("lobby", "", "lobby server address for rendezvous (alternative to -peer)")
		useRelay = flag.Bool("relay", false, "with -lobby: expect a relay-hosted placement (relayd) instead of a direct peer")
		session  = flag.String("session", "retrolock", "session code when using -lobby")
		frames   = flag.Int("frames", 3600, "frames to play (0 = until killed)")
		input    = flag.String("input", "bot", "synthetic player: bot, random, idle")
		render   = flag.Int("render", 0, "print the screen every N frames (0 = off)")
		lag      = flag.Int("lag", core.DefaultBufFrame, "local lag in frames")
		record   = flag.String("record", "", "write a replay log to this file")
		useTCP   = flag.Bool("tcp", false, "use the TCP baseline transport instead of UDP")
		spectate = flag.String("spectate", "", "join a running game as a spectator: address of the master site")
		accept   = flag.Bool("accept-spectators", true, "master only: serve savestates to spectators that connect")
		obsAddr  = flag.String("obs", "", "serve live metrics/expvar/pprof on this HTTP address (e.g. :6060)")
		traceOut = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of frame events to this file")
		flightTo = flag.String("flight-dir", ".", "directory for black-box incident bundles (\"\": $RETROLOCK_FLIGHT_DIR; both empty disable auto-write)")
		stallDur = flag.Duration("stall-threshold", 5*time.Second, "declare a liveness-stall incident after waiting this long for the peer (0 = off)")
	)
	flag.Parse()

	image, err := loadROM(*game, *romPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %q (%d bytes of code)", image.Title, len(image.Code))

	if *spectate != "" {
		if *site < 2 {
			*site = 2 // spectators are sites >= NumPlayers; override a default -site
		}
		spectateMain(image, *spectate, *site, *render)
		return
	}
	if *site != 0 && *site != 1 {
		log.Fatalf("-site must be 0 or 1, got %d", *site)
	}

	peerAddr := *peer
	listenAddr := *listen
	var relayToken relay.Token
	relayHosted := false
	if *lobbySrv != "" && *useRelay {
		// Admission path: the lobby places the session on a relay and
		// answers with a token + front address. Game traffic is prefixed
		// with the token and flows via the relay; the relay learns this
		// socket's public address from the first datagram.
		p, err := lobby.RendezvousPlaced(*lobbySrv, *session, *site, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		relayToken, err = relay.ParseToken(p.Token)
		if err != nil {
			log.Fatalf("lobby handed a bad relay token %q: %v", p.Token, err)
		}
		peerAddr = p.Addr
		relayHosted = true
		log.Printf("placed on relay %s (session token %s)", p.Addr, p.Token)
	} else if *lobbySrv != "" {
		local, found, err := lobby.Rendezvous(*lobbySrv, *session, *site, 1-*site, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		listenAddr, peerAddr = local, found
		log.Printf("rendezvous done: peer at %s", peerAddr)
	}
	if peerAddr == "" {
		log.Fatal("need -peer or -lobby")
	}

	var (
		conn transport.Conn
		lst  *transport.UDPListener
	)
	switch {
	case relayHosted:
		// Relay sessions are strictly two-site; spectators would need their
		// own placement, so the master does not demux this socket.
		conn, err = transport.DialUDP(listenAddr, peerAddr)
		if err == nil {
			conn = relay.NewClientConn(conn, relayToken, *site)
		}
	case *useTCP:
		conn, err = dialTCP(*site, listenAddr, peerAddr)
	case *site == 0 && *accept:
		// The master serves spectators from the same socket, so it
		// listens unconnected and demuxes by source.
		lst, err = transport.ListenUDPAddr(listenAddr)
		if err == nil {
			conn, err = lst.Conn(peerAddr)
		}
	default:
		conn, err = transport.DialUDP(listenAddr, peerAddr)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	log.Printf("connected: %s <-> %s", conn.LocalAddr(), conn.RemoteAddr())

	// The site: the console, the lockstep session over this conn, and its
	// live telemetry. Counters and histograms are free on the hot path
	// (atomics), the tracer keeps the freshest ~64k frame events in a fixed
	// ring, and the whole bundle serves over HTTP while the session runs.
	// The black-box flight recorder is always on, bounded and
	// allocation-free in steady state: it auto-writes an incident bundle on
	// divergence, stall or a frame-loop panic, and SIGQUIT or GET
	// /debug/flight/dump snapshots it on demand.
	traceCap := 0
	if *traceOut != "" || *obsAddr != "" {
		traceCap = 1 << 16
	}
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	ses, err := rig.New(rig.Spec{
		Clock:          vclock.System,
		Game:           image.Title,
		ROM:            image,
		Config:         core.Config{SiteNo: *site, BufFrame: *lag, WaitTimeout: 30 * time.Second},
		Peers:          []core.Peer{{Site: 1 - *site, Conn: conn}},
		Registry:       reg,
		TraceEvents:    traceCap,
		FlightDir:      *flightTo,
		StallThreshold: *stallDur,
	})
	if err != nil {
		log.Fatal(err)
	}
	if lst != nil {
		defer lst.Close()
		go acceptSpectators(lst, ses.Session)
	}
	console, fr, tracer := ses.Machine, ses.Flight, ses.Obs.Tracer

	// Health SLO engine: grades windowed RTT/skew/frame-time against the
	// paper's feasibility region; the verdict serves as retrolock_health_state
	// and GET /healthz, and flips are recorded as tracer incidents.
	health := ses.NewHealth(obs.HealthConfig{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGQUIT)
	go func() {
		for range sigs {
			if path, err := fr.WriteManual(); err != nil {
				log.Printf("flight dump failed: %v", err)
			} else {
				log.Printf("flight bundle written to %s (triage %s)", path, path)
			}
		}
	}()

	// History retention + a burn-rate alert over the session's own health
	// verdict: it fires when this site spends more than 4x a 5% budget of
	// the last minute (and five minutes) at degraded or worse, and shows up
	// on /alerts and /incidents next to the retained series on /history.
	// Sampling rides the same once-per-60-frames callback as the health
	// engine — one tick per wall second at full speed, zero allocations.
	hist := history.Wire(reg, history.Options{
		Rules: []history.Rule{{
			Name:   fmt.Sprintf("session-health-%d", *site),
			Source: history.SourceGauge,
			Bad:    []string{obs.Key("retrolock_health_state", obs.SiteLabels(*site))},
			BadMap: history.BadAbove(float64(obs.Degraded)),
			Budget: 0.05, FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
			Threshold: 4,
		}},
		Tracer:     tracer,
		TracerSite: *site,
	})

	if *obsAddr != "" {
		osrv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer osrv.Close()
		log.Printf("observability on http://%s/ (metrics, healthz, history, alerts, incidents, expvar, pprof, trace)", osrv.Addr())
	}

	log.Print("waiting for the peer (handshake)...")
	if err := ses.Handshake(60 * time.Second); err != nil {
		log.Fatal(err)
	}
	log.Print("session started")

	var rec *replay.Recorder
	if *record != "" {
		rec = replay.NewRecorder(image.Title, console.Console, 0)
	}

	player := newPlayer(*input, *site)
	start := time.Now()
	n := *frames
	if n == 0 {
		n = 1 << 30
	}
	err = ses.RunFrames(n, player.input, func(fi core.FrameInfo) {
		if rec != nil {
			rec.OnFrame(fi.Input)
		}
		if fi.Frame > 0 && fi.Frame%60 == 0 {
			now := time.Now()
			health.Evaluate(now)
			hist.Sample(now)
		}
		if *render > 0 && fi.Frame%*render == 0 {
			fmt.Print("\033[H\033[2J") // clear terminal
			fmt.Print(console.RenderASCII(2))
			fmt.Printf("frame %d  hash %016x  rtt %v\n", fi.Frame, fi.Hash, ses.Sync().RTTTo(1-*site))
		}
	})
	if err != nil {
		if p := fr.BundlePath(); p != "" {
			log.Printf("incident bundle written to %s (analyze with: triage %s)", p, p)
		} else if werr := fr.WriteErr(); werr != nil {
			log.Printf("incident bundle could not be written: %v", werr)
		}
		log.Fatalf("session aborted: %v", err)
	}
	ses.Drain(3 * time.Second)

	elapsed := time.Since(start)
	stats := ses.Sync().Stats()
	log.Printf("played %d frames in %v (%.1f FPS)", n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
	log.Printf("final state hash: %016x (compare across sites to confirm convergence)", console.StateHash())
	log.Printf("traffic: %d msgs sent, %d received, %d waits (%v waiting), rtt %v",
		stats.MsgsSent, stats.MsgsRcvd, stats.Waits, stats.WaitTime.Round(time.Millisecond),
		ses.Sync().RTTTo(1-*site))

	if rec != nil {
		recLog := rec.Log()
		if err := os.WriteFile(*record, recLog.Encode(), 0o644); err != nil {
			log.Fatalf("writing replay: %v", err)
		}
		log.Printf("replay written to %s", *record)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		if err := tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		log.Printf("trace written to %s (load in chrome://tracing or ui.perfetto.dev)", *traceOut)
	}
}

func loadROM(game, romPath string) (*rom.ROM, error) {
	if romPath != "" {
		data, err := os.ReadFile(romPath)
		if err != nil {
			return nil, err
		}
		return rom.Decode(data)
	}
	return games.Load(game)
}

// dialTCP wires the TCP baseline: the master listens, the slave dials.
func dialTCP(site int, listenAddr, peerAddr string) (transport.Conn, error) {
	if site == 0 {
		return transport.ListenTCP(listenAddr)
	}
	return transport.DialTCP(peerAddr)
}

// acceptSpectators watches the master's socket for unknown senders; a valid
// join request queues the newcomer, and the session streams it a savestate
// at the next frame boundary.
func acceptSpectators(lst *transport.UDPListener, ses *core.Session) {
	for {
		conn, ok := lst.Accept()
		if !ok {
			return
		}
		go func() {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				raw, ok := conn.TryRecv()
				if !ok {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if site, isJoin := core.ParseJoin(raw); isJoin {
					log.Printf("spectator (site %d) joining from %s", site, conn.RemoteAddr())
					ses.QueueJoiner(core.Peer{Site: site, Conn: conn})
					return
				}
			}
			conn.Close() // never identified itself
		}()
	}
}

// spectateMain follows a running match: savestate transfer, then lockstep
// playback of the forwarded inputs.
func spectateMain(image *rom.ROM, masterAddr string, site, render int) {
	console, err := image.Boot()
	if err != nil {
		log.Fatal(err)
	}
	conn, err := transport.DialUDP("", masterAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	log.Printf("requesting a savestate of %q from %s...", image.Title, masterAddr)

	cfg := core.Config{SiteNo: site, WaitTimeout: 15 * time.Second}
	ses, err := core.JoinSession(cfg, vclock.System, time.Now(), console,
		core.Peer{Site: 0, Conn: conn}, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("joined at frame %d", ses.Frame())
	err = ses.RunFrames(1<<30, nil, func(fi core.FrameInfo) {
		if render > 0 && fi.Frame%render == 0 {
			fmt.Print("\033[H\033[2J")
			fmt.Print(console.RenderASCII(2))
			fmt.Printf("frame %d  hash %016x  (spectating)\n", fi.Frame, fi.Hash)
		}
	})
	// The match ending looks like a wait timeout — that's the clean exit.
	log.Printf("spectating ended at frame %d: %v", ses.Frame(), err)
	if derr := ses.Diverged(); derr != nil {
		log.Fatalf("REPLICA DIVERGENCE: %v", derr)
	}
	log.Printf("no divergence against the master's state digests")
	log.Printf("final state hash: %016x (note: a spectator runs %d lag frames past the players' last frame)",
		console.StateHash(), core.DefaultBufFrame)
}

// player synthesizes this site's pad byte per frame.
type player struct {
	mode string
	site int
	rng  uint64
}

func newPlayer(mode string, site int) *player {
	return &player{mode: mode, site: site, rng: uint64(site) + 0x9E3779B97F4A7C15}
}

func (p *player) input(frame int) uint16 {
	var pad byte
	switch p.mode {
	case "idle":
		pad = 0
	case "random":
		h := fnv.New64a()
		fmt.Fprintf(h, "%d.%d.%d", p.site, frame, p.rng)
		pad = byte(h.Sum64())
	default: // bot: wiggle up/down and mash A now and then
		phase := frame / 30 % 4
		switch phase {
		case 0:
			pad = 1 // up
		case 1:
			pad = 2 // down
		case 2:
			pad = 1 | 16 // up + A
		default:
			pad = 2 | 16
		}
	}
	return uint16(pad) << (8 * p.site)
}
