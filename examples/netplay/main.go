// Netplay: two rig sites play Street Brawler in lockstep over real UDP
// sockets on the loopback interface and the host clock — the path
// cmd/retroplay runs across a WAN — and must end on the same state as one
// console stepped over their inputs alone.
//
//	go run ./examples/netplay
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"retrolock/internal/core"
	"retrolock/internal/rig"
	"retrolock/internal/rom/games"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

func main() {
	if err := run(os.Stdout, 300); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, frames int) error {
	// Site 0 listens and site 1 dials, as retroplay's master and slave do.
	lst, err := transport.ListenUDPAddr("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lst.Close()
	dialed, err := transport.DialUDP("", lst.Addr())
	if err != nil {
		return err
	}
	defer dialed.Close()
	listened, err := lst.Conn(dialed.LocalAddr())
	if err != nil {
		return err
	}
	// The fighters walk toward each other: site 0 right, site 1 left.
	input := func(site int) uint16 { return uint16(8>>site) << (8 * site) }
	duel := games.MustLoad("duel")
	var sites [2]*rig.Site
	for i, conn := range []transport.Conn{listened, dialed} {
		if sites[i], err = rig.New(rig.Spec{Clock: vclock.System, Game: "duel", ROM: duel,
			Config: core.Config{SiteNo: i}, Peers: []core.Peer{{Site: 1 - i, Conn: conn}}}); err != nil {
			return err
		}
	}
	err = rig.Run(nil, 2, func(i int) error {
		return sites[i].Play(frames, func(int) uint16 { return input(i) }, nil)
	})
	h0, h1 := sites[0].Machine.StateHash(), sites[1].Machine.StateHash()
	fmt.Fprintf(w, "%d frames over loopback UDP: site 0 %016x, site 1 %016x\n", frames, h0, h1)
	if err != nil {
		return err
	}
	if h0 != h1 {
		return fmt.Errorf("replicas diverged")
	}
	// The oracle: lockstep state is a function of the inputs alone. Frame
	// f executes both sites' inputs from frame f-BufFrame, and the first
	// BufFrame frames carry none.
	oracle, err := duel.Boot()
	if err != nil {
		return err
	}
	for f := 0; f < frames; f++ {
		var in uint16
		if f >= core.DefaultBufFrame {
			in = input(0) | input(1)
		}
		oracle.StepFrame(in)
	}
	if h := oracle.StateHash(); h != h0 {
		return fmt.Errorf("replicas agree at %016x but the oracle ends at %016x", h0, h)
	}
	return nil
}
