package core

import (
	"testing"
	"time"

	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// TestThreePlayersWithCustomMasks exercises the journal extension the
// two-site paper defers (§6): N input-contributing sites with disjoint
// SET[k] masks, full mesh, all replicas converging.
func TestThreePlayersWithCustomMasks(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	masks := []uint16{0x000F, 0x00F0, 0x0F00}

	mk := func(a, b string) (transport.Conn, transport.Conn) {
		x, y, err := transport.SimPair(n, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return x, y
	}
	c01, c10 := mk("0-1", "1-0")
	c02, c20 := mk("0-2", "2-0")
	c12, c21 := mk("1-2", "2-1")
	peers := [3][]Peer{
		{{Site: 1, Conn: c01}, {Site: 2, Conn: c02}},
		{{Site: 0, Conn: c10}, {Site: 2, Conn: c12}},
		{{Site: 0, Conn: c20}, {Site: 1, Conn: c21}},
	}

	const frames = 250
	var machines [3]*fakeMachine
	var errs [3]error
	var actors [3]func()
	for site := 0; site < 3; site++ {
		site := site
		machines[site] = &fakeMachine{}
		cfg := Config{
			SiteNo:      site,
			NumPlayers:  3,
			Masks:       masks,
			WaitTimeout: 10 * time.Second,
		}
		s, err := NewSession(cfg, v, epoch, machines[site], peers[site])
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			if errs[site] = s.Handshake(5 * time.Second); errs[site] != nil {
				return
			}
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				// Stir only this player's nibble.
				return uint16(f+site*5) & 0xF << (4 * site)
			}, nil)
			s.Drain(2 * time.Second)
		}
	}
	goAll(v, actors[:]...)
	for site := 0; site < 3; site++ {
		if errs[site] != nil {
			t.Fatalf("site %d: %v", site, errs[site])
		}
	}
	if machines[0].hash != machines[1].hash || machines[1].hash != machines[2].hash {
		t.Fatal("three-player replicas diverged")
	}
	// Every frame past the lag must contain all three nibbles.
	in := machines[0].inputs[DefaultBufFrame]
	want := uint16(0&0xF)<<0 | uint16(5&0xF)<<4 | uint16(10&0xF)<<8
	if in != want {
		t.Fatalf("frame %d merged input %#x, want %#x", DefaultBufFrame, in, want)
	}
}

// TestThreePlayersToleratesLoss repeats the mesh under per-link loss.
func TestThreePlayersToleratesLoss(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	masks := []uint16{0x0007, 0x0038, 0x01C0}

	// One endpoint pair per edge of the lossy full mesh.
	conns := make(map[[2]int]transport.Conn, 6)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			a := addrOf(i, j)
			b := addrOf(j, i)
			x, y, err := transport.SimPair(n, a, b)
			if err != nil {
				t.Fatal(err)
			}
			conns[[2]int{i, j}] = x
			conns[[2]int{j, i}] = y
			n.SetLink(a, b, &lossyConst{delay: 25 * time.Millisecond, everyNth: 7 + i + j})
			n.SetLink(b, a, &lossyConst{delay: 25 * time.Millisecond, everyNth: 8 + i + j})
		}
	}

	const frames = 200
	var machines [3]*fakeMachine
	var errs [3]error
	var actors [3]func()
	for site := 0; site < 3; site++ {
		site := site
		machines[site] = &fakeMachine{}
		var peers []Peer
		for other := 0; other < 3; other++ {
			if other != site {
				peers = append(peers, Peer{Site: other, Conn: conns[[2]int{site, other}]})
			}
		}
		cfg := Config{SiteNo: site, NumPlayers: 3, Masks: masks, WaitTimeout: 20 * time.Second}
		s, err := NewSession(cfg, v, epoch, machines[site], peers)
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				return uint16(f) & 0x7 << (3 * site)
			}, nil)
			s.Drain(3 * time.Second)
		}
	}
	goAll(v, actors[:]...)
	for site := 0; site < 3; site++ {
		if errs[site] != nil {
			t.Fatalf("site %d: %v", site, errs[site])
		}
	}
	if machines[0].hash != machines[1].hash || machines[1].hash != machines[2].hash {
		t.Fatal("lossy three-player replicas diverged")
	}
}

// lossyConst drops every n-th packet deterministically.
type lossyConst struct {
	delay    time.Duration
	everyNth int
	count    int
}

func (l *lossyConst) Plan(time.Time, int) []time.Duration {
	l.count++
	if l.count%l.everyNth == 0 {
		return nil
	}
	return []time.Duration{l.delay}
}

func addrOf(from, to int) string {
	return "mesh" + string(rune('0'+from)) + "-" + string(rune('0'+to))
}
