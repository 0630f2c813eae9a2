package core

import (
	"testing"
	"time"

	"retrolock/internal/vclock"
)

func TestFrameTimerPacesAtCFPS(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	timer := NewFrameTimer(Config{SiteNo: 0}.withDefaults(), v)
	done := v.Go(func() {
		for f := 0; f < 60; f++ {
			timer.BeginFrame(f, MasterView{})
			// Simulate 3ms of work.
			v.Sleep(3 * time.Millisecond)
			timer.EndFrame()
		}
	})
	<-done
	// 60 frames at 60 FPS ≈ 1 s regardless of per-frame work.
	elapsed := v.Elapsed()
	if elapsed < 990*time.Millisecond || elapsed > 1010*time.Millisecond {
		t.Fatalf("60 frames took %v, want ~1s", elapsed)
	}
}

func TestFrameTimerCompensatesOverrun(t *testing.T) {
	// Algorithm 3: a frame that takes 50ms (3 frame times) is followed by
	// shortened frames until the schedule is caught up.
	v := vclock.NewVirtual(epoch)
	timer := NewFrameTimer(Config{SiteNo: 0}.withDefaults(), v)
	done := v.Go(func() {
		timer.BeginFrame(0, MasterView{})
		v.Sleep(50 * time.Millisecond) // overrun
		timer.EndFrame()
		if timer.adjust >= 0 {
			t.Errorf("adjust = %v after overrun, want negative carry", timer.adjust)
		}
		for f := 1; f < 6; f++ {
			timer.BeginFrame(f, MasterView{})
			timer.EndFrame()
		}
	})
	<-done
	// 6 frames of schedule = 100ms; the overrun consumed 50ms of it, so
	// total elapsed stays ~100ms (catch-up), not 150ms.
	elapsed := v.Elapsed()
	if elapsed > 110*time.Millisecond {
		t.Fatalf("elapsed %v, want ~100ms (overrun not compensated)", elapsed)
	}
}

func TestFrameTimerMasterIgnoresMasterView(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	timer := NewFrameTimer(Config{SiteNo: 0}.withDefaults(), v)
	mv := MasterView{LastRcvFrame: 100, RcvTime: epoch, RTT: 40 * time.Millisecond, OK: true}
	done := v.Go(func() {
		timer.BeginFrame(0, mv)
		if timer.adjust != 0 {
			t.Errorf("master applied SyncAdjustTimeDelta %v, want 0", timer.adjust)
		}
	})
	<-done
}

func TestFrameTimerSlaveAppliesCorrection(t *testing.T) {
	// Slave at frame 130 while the master (per a fresh message) is at
	// frame 124+lag: SyncAdjustTimeDelta = (130 - (130-6))*tpf - elapsed.
	v := vclock.NewVirtual(epoch)
	cfg := Config{SiteNo: 1}.withDefaults()
	timer := NewFrameTimer(cfg, v)
	done := v.Go(func() {
		v.Sleep(time.Second)
		now := v.Now()
		rtt := 40 * time.Millisecond
		// Master input for frame 130 (lag included) arrived 10ms ago.
		mv := MasterView{
			LastRcvFrame: 130,
			RcvTime:      now.Add(-10 * time.Millisecond),
			RTT:          rtt,
			OK:           true,
		}
		timer.BeginFrame(130, mv)
		// masterFrame = 130-6 = 124; sent at now-10ms-20ms = 30ms ago.
		// sync = (130-124)*16.67ms - 30ms = 100ms - 30ms = +70ms.
		got := timer.adjust
		want := 6*timePerFrame - 30*time.Millisecond
		if got < want-time.Millisecond || got > want+time.Millisecond {
			t.Fatalf("SyncAdjustTimeDelta = %v, want ~%v", got, want)
		}
	})
	<-done
}

func TestNaiveTimerPacesWithoutCorrection(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	timer := NewNaiveTimer(v)
	done := v.Go(func() {
		for f := 0; f < 30; f++ {
			timer.BeginFrame(f, MasterView{LastRcvFrame: 999, RcvTime: v.Now(), RTT: time.Second, OK: true})
			timer.EndFrame()
		}
	})
	<-done
	elapsed := v.Elapsed()
	want := 30 * (time.Second / 60)
	if elapsed < want-5*time.Millisecond || elapsed > want+5*time.Millisecond {
		t.Fatalf("30 frames took %v, want ~%v (naive timer must ignore the master view)", elapsed, want)
	}
}

// TestNaivePenalizesEarlierSite demonstrates §3.2's motivating problem: with
// the naive timer, the earlier-starting site suffers persistent frame-time
// fluctuation, while Algorithm 4 lets the (late) slave absorb the offset.
func TestNaivePenalizesEarlierSite(t *testing.T) {
	run := func(naive bool) (madEarlier float64) {
		env := newTwoSiteEnv(t, 80*time.Millisecond, 0)
		const frames = 400
		var startTimes [2][]time.Time
		var errs [2]error
		var actors [2]func()
		for site := 0; site < 2; site++ {
			site := site
			cfg := Config{SiteNo: site, WaitTimeout: 10 * time.Second}
			var opts []SessionOption
			if naive {
				opts = append(opts, WithPacer(NewNaiveTimer(env.v)))
			}
			s, err := NewSession(cfg, env.v, epoch, &fakeMachine{}, []Peer{{Site: 1 - site, Conn: env.conns[site]}}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			actors[site] = func() {
				if site == 1 {
					env.v.Sleep(120 * time.Millisecond) // site 0 starts earlier
				}
				errs[site] = s.RunFrames(frames, func(int) uint16 { return 0 }, func(fi FrameInfo) {
					startTimes[site] = append(startTimes[site], fi.Start)
				})
				s.Drain(2 * time.Second)
			}
		}
		goAll(env.v, actors[:]...)
		for site, err := range errs {
			if err != nil {
				t.Fatalf("site %d (naive=%v): %v", site, naive, err)
			}
		}
		// Mean absolute deviation of site 0's frame times over the
		// steady-state tail.
		var times []float64
		for f := 200; f < frames-1; f++ {
			times = append(times, float64(startTimes[0][f+1].Sub(startTimes[0][f]))/float64(time.Millisecond))
		}
		mean := 0.0
		for _, x := range times {
			mean += x
		}
		mean /= float64(len(times))
		mad := 0.0
		for _, x := range times {
			if x > mean {
				mad += x - mean
			} else {
				mad += mean - x
			}
		}
		return mad / float64(len(times))
	}

	naiveMAD := run(true)
	syncMAD := run(false)
	if syncMAD > naiveMAD {
		t.Fatalf("Algorithm 4 made the earlier site less smooth: naive MAD %.2fms vs master/slave MAD %.2fms",
			naiveMAD, syncMAD)
	}
}
