// Latejoin: the journal extension (§6) in action. Two players fight through
// Street Brawler; twenty virtual seconds in, a spectator connects to player
// 0, receives a chunked savestate of the running console, and follows the
// rest of the match frame-locked — without having seen the beginning.
//
//	go run ./examples/latejoin
package main

import (
	"fmt"
	"log"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/netem"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
	"retrolock/internal/vm"
)

const (
	phase1 = 1200 // frames before the spectator joins (20 s)
	phase2 = 600  // frames it watches (10 s)
)

func main() {
	log.SetFlags(0)

	clock := vclock.NewVirtual(time.Now())
	network := simnet.New(clock)
	fwd, rev := netem.Symmetric(60*time.Millisecond, 2*time.Millisecond, 0, 9)
	netem.Install(network, "p0", "p1", fwd, rev)
	c01, c10, err := transport.SimPair(network, "p0", "p1")
	if err != nil {
		log.Fatal(err)
	}
	// The spectator's link to player 0 (a clean local connection).
	cObs, cSrv, err := transport.SimPair(network, "spectator", "p0-spectator")
	if err != nil {
		log.Fatal(err)
	}

	game := games.MustLoad("duel")
	boot := func() *vm.Console {
		c, err := game.Boot()
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	hashes := make(map[string]uint64, 3)
	errs := make(map[string]error, 3)

	consoles := map[string]*vm.Console{"p0": boot(), "p1": boot()}
	input := func(site int) func(int) uint16 {
		return func(frame int) uint16 {
			var pad byte = 8 >> (2 * site) // p0 right, p1 left
			if frame%25 < 2 {
				pad |= 16
			}
			return uint16(pad) << (8 * site)
		}
	}

	s0, err := core.NewSession(core.Config{SiteNo: 0, WaitTimeout: 10 * time.Second},
		clock, clock.Now(), consoles["p0"], []core.Peer{{Site: 1, Conn: c01}})
	if err != nil {
		log.Fatal(err)
	}
	s1, err := core.NewSession(core.Config{SiteNo: 1, WaitTimeout: 10 * time.Second},
		clock, clock.Now(), consoles["p1"], []core.Peer{{Site: 0, Conn: c10}})
	if err != nil {
		log.Fatal(err)
	}

	// One root actor starts the others: none runs, and the clock stands
	// still, until all are registered.
	var d0, d1, dObs <-chan struct{}
	<-clock.Go(func() {
		d0 = clock.Go(func() {
			if errs["p0"] = s0.RunFrames(phase1, input(0), nil); errs["p0"] != nil {
				return
			}
			// Admit the spectator mid-game: snapshot + forwarded inputs.
			joinFrame, err := s0.AddJoiner(core.Peer{Site: 2, Conn: cSrv})
			if err != nil {
				errs["p0"] = err
				return
			}
			fmt.Printf("player 0 serving a savestate at frame %d\n", joinFrame)
			errs["p0"] = s0.RunFrames(phase2, input(0), nil)
			s0.Drain(4 * time.Second)
			hashes["p0"] = consoles["p0"].StateHash()
		})
		d1 = clock.Go(func() {
			if errs["p1"] = s1.RunFrames(phase1+phase2, input(1), nil); errs["p1"] != nil {
				return
			}
			s1.Drain(4 * time.Second)
			hashes["p1"] = consoles["p1"].StateHash()
		})
		dObs = clock.Go(func() {
			// Turn up twenty seconds into the match.
			clock.Sleep(phase1 * 16667 * time.Microsecond)
			console := boot()
			ses, err := core.JoinSession(core.Config{SiteNo: 2, WaitTimeout: 10 * time.Second},
				clock, clock.Now(), console, core.Peer{Site: 0, Conn: cObs}, 10*time.Second)
			if err != nil {
				errs["spectator"] = err
				return
			}
			fmt.Printf("spectator joined at frame %d (skipped the first %v of play)\n",
				ses.Frame(), time.Duration(ses.Frame())*16667*time.Microsecond)
			remaining := phase1 + phase2 - ses.Frame()
			errs["spectator"] = ses.RunFrames(remaining, nil, nil)
			hashes["spectator"] = console.StateHash()
		})
	})
	<-d0
	<-d1
	<-dObs

	for who, err := range errs {
		if err != nil {
			log.Fatalf("%s: %v", who, err)
		}
	}
	fmt.Printf("player 0:  %016x\n", hashes["p0"])
	fmt.Printf("player 1:  %016x\n", hashes["p1"])
	fmt.Printf("spectator: %016x\n", hashes["spectator"])
	if hashes["p0"] == hashes["p1"] && hashes["p1"] == hashes["spectator"] {
		fmt.Println("all three replicas converged — the late joiner caught up perfectly")
	} else {
		log.Fatal("divergence detected")
	}
}
