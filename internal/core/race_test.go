package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsPollingDuringSessionIsRaceFree is the regression test for the
// Stats/LagStats data race: a live monitoring goroutine (an obs registry
// scrape, in production) polls the session's accessors from a real OS
// goroutine while the frame loop runs inside the virtual-clock actors. The
// counters used to be plain ints written by the frame loop, so this test
// fails under -race when the accessors bypass the atomic counter structs;
// with them it must be silent.
func TestStatsPollingDuringSessionIsRaceFree(t *testing.T) {
	env := newTwoSiteEnv(t, 30*time.Millisecond, 0.05)
	const frames = 300

	machines := [2]*fakeMachine{{}, {}}
	sessions := [2]*Session{}
	for site := 0; site < 2; site++ {
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 20 * time.Second},
			env.v, epoch, machines[site],
			[]Peer{{Site: 1 - site, Conn: env.conns[site]}},
			WithAdaptiveLag(AdaptiveLag{Min: 2, Max: 12, Margin: 10 * time.Millisecond, Every: 30}))
		if err != nil {
			t.Fatal(err)
		}
		sessions[site] = s
	}

	// The poller races the virtual-time actors on purpose: it runs on a
	// plain goroutine with no synchronization against the frame loops.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var polls atomic.Int64
	var sink atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range sessions {
				st := s.Sync().Stats()
				changes, avg := s.LagStats()
				sink.Add(int64(st.MsgsSent + st.InputsFresh + st.BufPeak + changes + int(avg)))
				sink.Add(int64(s.Frame() + s.Sync().Lag()))
				if s.Sync().AllAcked() {
					sink.Add(1)
				}
			}
			polls.Add(1)
			runtime.Gosched() // at GOMAXPROCS=1, give the thread back to the session
		}
	}()

	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		s := sessions[site]
		actors[site] = func() {
			if errs[site] = s.Handshake(5 * time.Second); errs[site] != nil {
				return
			}
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				letPollerIn(f)
				return uint16(f*3+site) & 0xFF << (8 * site)
			}, nil)
			s.Drain(2 * time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	close(stop)
	wg.Wait()

	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged while being polled")
	}
	if polls.Load() == 0 {
		t.Fatal("poller never ran concurrently with the session")
	}
}

// TestRollbackStatsPollingIsRaceFree is the rollback-baseline variant: the
// timewarp counters (rollbacks, replayed frames, snapshot volume) and the
// frame cursor are polled while RunFrames speculates and rewinds.
func TestRollbackStatsPollingIsRaceFree(t *testing.T) {
	env := newTwoSiteEnv(t, 60*time.Millisecond, 0.05)
	const frames = 300

	machines := [2]*fakeMachine{{}, {}}
	sessions := [2]*RollbackSession{}
	for site := 0; site < 2; site++ {
		s, err := NewRollbackSession(Config{SiteNo: site, WaitTimeout: 20 * time.Second},
			env.v, epoch, machines[site],
			[]Peer{{Site: 1 - site, Conn: env.conns[site]}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		sessions[site] = s
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var polls, sink atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range sessions {
				rb := s.Stats()
				st := s.Sync().Stats()
				sink.Add(int64(rb.Rollbacks + rb.ReplayedFrames + rb.DeepestRollback + st.MsgsRcvd))
				sink.Add(int64(s.Frame()))
			}
			polls.Add(1)
			runtime.Gosched() // at GOMAXPROCS=1, give the thread back to the session
		}
	}()

	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		s := sessions[site]
		actors[site] = func() {
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				letPollerIn(f)
				return uint16(f*7+site) & 0xFF << (8 * site)
			}, nil)
			if errs[site] == nil {
				errs[site] = s.Settle(5 * time.Second)
			}
		}
	}
	goAll(env.v, actors[:]...)
	close(stop)
	wg.Wait()

	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("rollback replicas diverged while being polled")
	}
	if polls.Load() == 0 {
		t.Fatal("poller never ran concurrently with the session")
	}
}

// letPollerIn yields the thread every 50 frames. A virtual-time world keeps
// its OS thread for its whole run, so at GOMAXPROCS=1 the poller would
// otherwise get in only if the session outlasted a preemption time slice.
func letPollerIn(f int) {
	if f%50 == 0 {
		runtime.Gosched()
	}
}
