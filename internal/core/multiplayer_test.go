package core

import (
	"testing"
	"time"

	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// TestMeshWithObserverToleratesLoss runs the two players and an observer
// as a full mesh under per-link loss: every replica, the observer's too,
// must converge.
func TestMeshWithObserverToleratesLoss(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)

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
		cfg := Config{SiteNo: site, WaitTimeout: 20 * time.Second}
		s, err := NewSession(cfg, v, epoch, machines[site], peers)
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				return uint16(f) & 0xFF << (8 * site)
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
		t.Fatal("lossy mesh replicas diverged")
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
