// Quickstart: the smallest complete use of the library. Two players run the
// same Pong ROM on two replicated consoles, connected by an in-process
// network with 80 ms of emulated round-trip latency, synchronized by the
// paper's lockstep algorithm. Everything runs on a virtual clock, so the
// ten-second session finishes instantly and deterministically.
//
//	go run ./examples/quickstart
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
)

func main() {
	log.SetFlags(0)

	// 1. A virtual clock and a network with an emulated 80 ms RTT link.
	clock := vclock.NewVirtual(time.Now())
	network := simnet.New(clock)
	fwd, rev := netem.Symmetric(80*time.Millisecond, 2*time.Millisecond, 0.01, 42)
	netem.Install(network, "alice", "bob", fwd, rev)
	connA, connB, err := transport.SimPair(network, "alice", "bob")
	if err != nil {
		log.Fatal(err)
	}
	conns := []transport.Conn{connA, connB}

	// 2. Both sites boot the same game image (§2: "the same game image is
	// loaded onto the two VMs").
	game := games.MustLoad("pong")

	// 3. Each site: console + lockstep session. Site 0 is the master.
	const frames = 600 // ten seconds at 60 FPS
	type site struct {
		hash uint64
		err  error
	}
	results := make([]site, 2)
	done := make([]<-chan struct{}, 2)
	// One root actor starts the others: none runs, and the clock stands
	// still, until all are registered.
	<-clock.Go(func() {
		for s := 0; s < 2; s++ {
			s := s
			console, err := game.Boot()
			if err != nil {
				log.Fatal(err)
			}
			ses, err := core.NewSession(
				core.Config{SiteNo: s, WaitTimeout: 10 * time.Second},
				clock, clock.Now(), console,
				[]core.Peer{{Site: 1 - s, Conn: conns[s]}},
			)
			if err != nil {
				log.Fatal(err)
			}
			done[s] = clock.Go(func() {
				if err := ses.Handshake(5 * time.Second); err != nil {
					results[s].err = err
					return
				}
				// Each player wiggles its own paddle; the sync module
				// merges the two input bytes.
				input := func(frame int) uint16 {
					var pad byte = 1 // up
					if frame/45%2 == 1 {
						pad = 2 // down
					}
					return uint16(pad) << (8 * s)
				}
				results[s].err = ses.RunFrames(frames, input, nil)
				ses.Drain(2 * time.Second)
				results[s].hash = console.StateHash()

				if s == 0 {
					fmt.Println(console.RenderASCII(2))
				}
			})
		}
	})
	<-done[0]
	<-done[1]

	for s, r := range results {
		if r.err != nil {
			log.Fatalf("site %d: %v", s, r.err)
		}
	}
	fmt.Printf("site 0 state: %016x\n", results[0].hash)
	fmt.Printf("site 1 state: %016x\n", results[1].hash)
	if results[0].hash == results[1].hash {
		fmt.Printf("replicas converged after %d frames (%v of virtual play)\n",
			frames, clock.Elapsed().Round(time.Millisecond))
	} else {
		log.Fatal("replicas diverged!")
	}
}
