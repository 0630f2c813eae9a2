// Divergence: demonstrates the state-digest exchange that guards the
// paper's determinism assumption (§5). Two replicas play Tank Battle in
// lockstep; mid-game we corrupt one console's RAM by a single byte —
// standing in for the nondeterminism hazards §5 warns about (system clocks,
// environment variables, disk files feeding the game). Within a second of
// game time both sites report the divergence, naming the exact frame.
//
//	go run ./examples/divergence
package main

import (
	"errors"
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
	corruptAtFrame = 150
	totalFrames    = 600
)

func main() {
	log.SetFlags(0)

	clock := vclock.NewVirtual(time.Now())
	network := simnet.New(clock)
	fwd, rev := netem.Symmetric(50*time.Millisecond, 0, 0, 3)
	netem.Install(network, "a", "b", fwd, rev)
	connA, connB, err := transport.SimPair(network, "a", "b")
	if err != nil {
		log.Fatal(err)
	}
	conns := []transport.Conn{connA, connB}

	game := games.MustLoad("tanks")
	errs := make([]error, 2)
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
				core.Config{SiteNo: s, WaitTimeout: 10 * time.Second, HashInterval: 30},
				clock, clock.Now(), console,
				[]core.Peer{{Site: 1 - s, Conn: conns[s]}},
			)
			if err != nil {
				log.Fatal(err)
			}
			done[s] = clock.Go(func() {
				if err := ses.Handshake(5 * time.Second); err != nil {
					errs[s] = err
					return
				}
				errs[s] = ses.RunFrames(totalFrames, func(f int) uint16 {
					if s == 1 && f == corruptAtFrame {
						// The §5 hazard, simulated: one replica's state
						// silently changes outside the input stream.
						console.Poke(0x8200, console.Peek(0x8200)^0x01)
						fmt.Printf("site 1: corrupted one byte of RAM before frame %d\n", f)
					}
					return uint16(vm.BtnRight) << (8 * s)
				}, nil)
				ses.Drain(time.Second)
			})
		}
	})
	<-done[0]
	<-done[1]

	caught := false
	for s, err := range errs {
		var de *core.DivergenceError
		if errors.As(err, &de) {
			caught = true
			fmt.Printf("site %d detected it: %v\n", s, de)
			fmt.Printf("  (frame %d is within %d frames of the corruption at %d — one digest interval)\n",
				de.Frame, de.Frame-corruptAtFrame+30, corruptAtFrame)
		} else if err != nil {
			log.Fatalf("site %d failed differently: %v", s, err)
		}
	}
	if !caught {
		log.Fatal("divergence was never detected!")
	}
	fmt.Println("without the digest exchange the replicas would have drifted apart silently")
}
