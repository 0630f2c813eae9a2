package core

import (
	"errors"
	"testing"
	"time"

	"retrolock/internal/obs"
)

// rollbackRegistry publishes each session's counters under its site's
// labels, as harness does, so a test reads what a scrape reads.
func rollbackRegistry(ses ...*RollbackSession) *obs.Registry {
	reg := obs.NewRegistry()
	for site, s := range ses {
		RegisterRollbackMetrics(reg, obs.SiteLabels(site), s)
	}
	return reg
}

// runRollbackPair runs two rollback sessions to completion and returns the
// registry their counters are published on.
func runRollbackPair(t *testing.T, env *twoSiteEnv, frames, window int, input func(site, frame int) uint16) (*obs.Registry, [2]*fakeMachine) {
	t.Helper()
	var ses [2]*RollbackSession
	var machines [2]*fakeMachine
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		machines[site] = &fakeMachine{}
		s, err := NewRollbackSession(Config{SiteNo: site, WaitTimeout: 20 * time.Second},
			env.v, epoch, machines[site], []Peer{{Site: 1 - site, Conn: env.conns[site]}}, window)
		if err != nil {
			t.Fatal(err)
		}
		ses[site] = s
		actors[site] = func() {
			errs[site] = s.RunFrames(frames, func(f int) uint16 { return input(site, f) }, nil)
			if errs[site] == nil {
				errs[site] = s.Settle(5 * time.Second)
			}
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	return rollbackRegistry(ses[:]...), machines
}

func TestRollbackConvergesWithChangingInputs(t *testing.T) {
	env := newTwoSiteEnv(t, 80*time.Millisecond, 0)
	input := func(site, frame int) uint16 {
		// Change inputs every few frames so predictions miss regularly.
		return uint16(frame/3+site) & 0xFF << (8 * site)
	}
	reg, machines := runRollbackPair(t, env, 300, 0, input)
	if machines[0].hash != machines[1].hash {
		t.Fatal("rollback replicas diverged after settle")
	}
	snap := reg.Snapshot()
	for site := range machines {
		st := RollbackStatsFromSnapshot(snap, obs.SiteLabels(site))
		if st.Rollbacks == 0 {
			t.Errorf("site %d: no rollbacks despite changing inputs at RTT 80ms", site)
		}
		if st.PredictedFrames == 0 {
			t.Errorf("site %d: no predicted frames (latency hiding not exercised)", site)
		}
		if st.SnapshotBytes == 0 {
			t.Errorf("site %d: no snapshot volume recorded", site)
		}
	}
}

func TestRollbackZeroInputLatency(t *testing.T) {
	// The whole point of the baseline: a site's own input for frame f is
	// applied at frame f, not f+BufFrame.
	env := newTwoSiteEnv(t, 60*time.Millisecond, 0)
	input := func(site, frame int) uint16 {
		return uint16(frame) & 0xFF << (8 * site)
	}
	_, machines := runRollbackPair(t, env, 200, 0, input)
	for f := 0; f < 200; f++ {
		localBits := machines[0].inputs[f] & 0x00FF
		if localBits != input(0, f)&0x00FF {
			t.Fatalf("frame %d executed with local bits %#x, want %#x (zero lag)",
				f, localBits, input(0, f)&0x00FF)
		}
	}
}

func TestRollbackConstantInputsNeverRollBack(t *testing.T) {
	// Repeat-last prediction is exact when inputs never change.
	env := newTwoSiteEnv(t, 60*time.Millisecond, 0)
	reg, machines := runRollbackPair(t, env, 200, 0,
		func(site, frame int) uint16 { return 0x0101 & (0x00FF << (8 * site)) })
	if machines[0].hash != machines[1].hash {
		t.Fatal("diverged")
	}
	snap := reg.Snapshot()
	for site := range machines {
		// The very first frames are predicted from "idle" before any
		// remote input arrives, so a small number of early rollbacks
		// is legitimate; none may happen after warm-up.
		if st := RollbackStatsFromSnapshot(snap, obs.SiteLabels(site)); st.Rollbacks > 2 {
			t.Errorf("site %d: %d rollbacks with constant inputs, want <= 2 (warm-up only)", site, st.Rollbacks)
		}
	}
}

func TestRollbackWindowStallsOnDeadPeer(t *testing.T) {
	env := newTwoSiteEnv(t, 40*time.Millisecond, 0)
	m := &fakeMachine{}
	s, err := NewRollbackSession(Config{SiteNo: 0, WaitTimeout: 2 * time.Second},
		env.v, epoch, m, []Peer{{Site: 1, Conn: env.conns[0]}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := rollbackRegistry(s)
	done := env.v.Go(func() {
		err := s.RunFrames(100, func(int) uint16 { return 1 }, nil)
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout at the prediction window", err)
		}
		// It ran ahead by at most the window before stalling.
		if frame := reg.Snapshot()[obs.Key(MetricFrame, obs.SiteLabels(0))]; frame > 8+1 {
			t.Errorf("executed %v frames against a dead peer, window is 8", frame)
		}
	})
	<-done
}

func TestRollbackTimesyncAbsorbsStartupOffset(t *testing.T) {
	// Site 1 starts 150ms late. Timesync must bleed the phase advantage
	// off site 0 so the pair converges instead of site 0 stalling at the
	// prediction window forever.
	env := newTwoSiteEnv(t, 60*time.Millisecond, 0)
	const frames = 600
	var ses [2]*RollbackSession
	var machines [2]*fakeMachine
	var lastStart [2]time.Time
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		machines[site] = &fakeMachine{}
		s, err := NewRollbackSession(Config{SiteNo: site, WaitTimeout: 20 * time.Second},
			env.v, epoch, machines[site], []Peer{{Site: 1 - site, Conn: env.conns[site]}}, 8)
		if err != nil {
			t.Fatal(err)
		}
		ses[site] = s
		actors[site] = func() {
			if site == 1 {
				env.v.Sleep(150 * time.Millisecond)
			}
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				return uint16(f/5) & 0xFF << (8 * site)
			}, func(fi FrameInfo) { lastStart[site] = fi.Start })
			if errs[site] == nil {
				errs[site] = s.Settle(5 * time.Second)
			}
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("diverged across startup offset")
	}
	// Final frames must start nearly simultaneously: the offset was
	// absorbed.
	skew := lastStart[1].Sub(lastStart[0])
	if skew < 0 {
		skew = -skew
	}
	if skew > 60*time.Millisecond {
		t.Fatalf("final frame skew %v; timesync failed to absorb the 150ms offset", skew)
	}
	if RollbackStatsFromSnapshot(rollbackRegistry(ses[:]...).Snapshot(), obs.SiteLabels(0)).TimesyncSlept == 0 {
		t.Error("the earlier site never slept for timesync")
	}
}

func TestRollbackRequiresSnapshotter(t *testing.T) {
	// A machine without savestates cannot roll back.
	type plainMachine struct{ Machine }
	env := newTwoSiteEnv(t, 10*time.Millisecond, 0)
	_, err := NewRollbackSession(Config{SiteNo: 0}, env.v, epoch,
		plainMachine{&fakeMachine{}}, []Peer{{Site: 1, Conn: env.conns[0]}}, 0)
	if err == nil {
		t.Fatal("non-snapshotter machine accepted")
	}
}

func TestRollbackRunsAtFullSpeedBelowWindow(t *testing.T) {
	// With the one-way delay (RTT 60ms => ~2 frames, plus ~2 frames of
	// send pacing/skew) comfortably inside the window of 8, the game runs
	// at 60 FPS despite the latency — the latency-hiding property
	// lockstep lacks.
	env := newTwoSiteEnv(t, 60*time.Millisecond, 0)
	start := env.v.Now()
	reg, _ := runRollbackPair(t, env, 300, 8,
		func(site, frame int) uint16 { return uint16(frame/7) & 0xFF << (8 * site) })
	elapsed := env.v.Now().Sub(start)
	// 300 frames at 60 FPS = 5s (+ settle slack).
	if elapsed > 6*time.Second {
		t.Fatalf("300 frames took %v, want ~5s (rollback must not stall at RTT 60ms)", elapsed)
	}
	snap := reg.Snapshot()
	for site := 0; site < 2; site++ {
		if st := RollbackStatsFromSnapshot(snap, obs.SiteLabels(site)); st.StallFrames > 20 {
			t.Errorf("site %d stalled %d frames at RTT 60ms with window 8", site, st.StallFrames)
		}
	}
}
