package core_test

import (
	"fmt"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/netem"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// Example runs a complete two-site lockstep session over an emulated 60 ms
// RTT link in virtual time: the minimal end-to-end use of the package.
func Example() {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	network := simnet.New(clock)
	fwd, rev := netem.Symmetric(60*time.Millisecond, 0, 0, 1)
	netem.Install(network, "p0", "p1", fwd, rev)
	c0, c1, err := transport.SimPair(network, "p0", "p1")
	if err != nil {
		fmt.Println(err)
		return
	}
	conns := []transport.Conn{c0, c1}

	game := games.MustLoad("pong")
	hashes := make([]uint64, 2)
	site := make([]func(), 2)
	for i := range site {
		i := i
		console, err := game.Boot()
		if err != nil {
			fmt.Println(err)
			return
		}
		ses, err := core.NewSession(
			core.Config{SiteNo: i, WaitTimeout: 10 * time.Second},
			clock, clock.Now(), console,
			[]core.Peer{{Site: 1 - i, Conn: conns[i]}},
		)
		if err != nil {
			fmt.Println(err)
			return
		}
		site[i] = func() {
			if err := ses.Handshake(5 * time.Second); err != nil {
				return
			}
			_ = ses.RunFrames(120, func(frame int) uint16 {
				return uint16(1) << (8 * i) // both hold "up"
			}, nil)
			ses.Drain(time.Second)
			hashes[i] = console.StateHash()
		}
	}
	// Both sites start from one root actor: neither runs (and the clock
	// stands still) until both are registered.
	done := make([]<-chan struct{}, 2)
	<-clock.Go(func() {
		done[0] = clock.Go(site[0])
		done[1] = clock.Go(site[1])
	})
	<-done[0]
	<-done[1]
	fmt.Println("converged:", hashes[0] == hashes[1])
	// Output: converged: true
}

// ExampleInputSync_SyncInput shows Algorithm 2 in isolation: local inputs
// are delayed by the 100 ms local lag and merged with the remote site's
// bits.
func ExampleInputSync_SyncInput() {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	network := simnet.New(clock)
	c0, c1, err := transport.SimPair(network, "a", "b")
	if err != nil {
		fmt.Println(err)
		return
	}

	s0, err := core.NewInputSync(core.Config{SiteNo: 0}, clock, clock.Now(),
		[]core.Peer{{Site: 1, Conn: c0}})
	if err != nil {
		fmt.Println(err)
		return
	}
	s1, err := core.NewInputSync(core.Config{SiteNo: 1}, clock, clock.Now(),
		[]core.Peer{{Site: 0, Conn: c1}})
	if err != nil {
		fmt.Println(err)
		return
	}

	done := clock.Go(func() {
		for frame := 0; frame <= core.DefaultBufFrame; frame++ {
			a, _ := s0.SyncInput(0x0011, frame) // site 0's pad byte
			b, _ := s1.SyncInput(0x2200, frame) // site 1's pad byte
			if frame < core.DefaultBufFrame {
				fmt.Printf("frame %d: %#04x (lag: empty)\n", frame, a)
			} else {
				fmt.Printf("frame %d: %#04x merged, replicas agree: %v\n", frame, a, a == b)
			}
			clock.Sleep(16667 * time.Microsecond)
		}
	})
	<-done
	// Output:
	// frame 0: 0x0000 (lag: empty)
	// frame 1: 0x0000 (lag: empty)
	// frame 2: 0x0000 (lag: empty)
	// frame 3: 0x0000 (lag: empty)
	// frame 4: 0x0000 (lag: empty)
	// frame 5: 0x0000 (lag: empty)
	// frame 6: 0x2211 merged, replicas agree: true
}
