// Netplay: two rig sites play Street Brawler in lockstep over real UDP
// sockets on the loopback interface and the host clock — the path
// cmd/retroplay runs across a WAN — and must end on the same state.
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
	var sites [2]*rig.Site
	for i, conn := range []transport.Conn{listened, dialed} {
		if sites[i], err = rig.New(rig.Spec{Clock: vclock.System, Game: "duel", ROM: games.MustLoad("duel"),
			Config: core.Config{SiteNo: i}, Peers: []core.Peer{{Site: 1 - i, Conn: conn}}}); err != nil {
			return err
		}
	}
	// The fighters walk toward each other: site 0 right, site 1 left.
	err = rig.Run(nil, 2, func(i int) error {
		return sites[i].Play(frames, func(int) uint16 { return uint16(8>>i) << (8 * i) }, nil)
	})
	h0, h1 := sites[0].Machine.StateHash(), sites[1].Machine.StateHash()
	fmt.Fprintf(w, "%d frames over loopback UDP: site 0 %016x, site 1 %016x\n", frames, h0, h1)
	if err == nil && h0 != h1 {
		err = fmt.Errorf("replicas diverged")
	}
	return err
}
