package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC) // ICDCS'09 week

// goAll starts fns as actors from one root actor, so none of them runs
// before all are registered, and waits for all of them.
func goAll(v *Virtual, fns ...func()) {
	dones := make([]<-chan struct{}, len(fns))
	<-v.Go(func() {
		for i, fn := range fns {
			dones[i] = v.Go(fn)
		}
	})
	for _, d := range dones {
		<-d
	}
}

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	if v.Elapsed() != 0 {
		t.Fatalf("Elapsed() = %v, want 0", v.Elapsed())
	}
}

func TestVirtualSingleActorSleepAdvances(t *testing.T) {
	v := NewVirtual(epoch)
	done := v.Go(func() {
		v.Sleep(250 * time.Millisecond)
		v.Sleep(750 * time.Millisecond)
	})
	<-done
	if got := v.Elapsed(); got != time.Second {
		t.Fatalf("Elapsed() = %v, want 1s", got)
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	v := NewVirtual(epoch)
	done := v.Go(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	<-done
	if got := v.Elapsed(); got != 0 {
		t.Fatalf("Elapsed() = %v, want 0", got)
	}
}

func TestVirtualTwoActorsInterleave(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []string
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}
	goAll(v, func() {
		v.Sleep(10 * time.Millisecond)
		record("a10")
		v.Sleep(20 * time.Millisecond) // wakes at 30ms
		record("a30")
	}, func() {
		v.Sleep(15 * time.Millisecond)
		record("b15")
		v.Sleep(30 * time.Millisecond) // wakes at 45ms
		record("b45")
	})
	want := []string{"a10", "b15", "a30", "b45"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := v.Elapsed(); got != 45*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 45ms", got)
	}
}

func TestVirtualScheduleRunsAtDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	var fired atomic.Int64
	v.Schedule(epoch.Add(40*time.Millisecond), func() {
		fired.Store(v.Now().Sub(epoch).Milliseconds())
	})
	done := v.Go(func() {
		v.Sleep(100 * time.Millisecond)
	})
	<-done
	if fired.Load() != 40 {
		t.Fatalf("event fired at %dms, want 40ms", fired.Load())
	}
}

func TestVirtualScheduleAfterChained(t *testing.T) {
	v := NewVirtual(epoch)
	var at []time.Duration
	var mu sync.Mutex
	v.ScheduleAfter(10*time.Millisecond, func() {
		mu.Lock()
		at = append(at, v.Now().Sub(epoch))
		mu.Unlock()
		v.ScheduleAfter(15*time.Millisecond, func() {
			mu.Lock()
			at = append(at, v.Now().Sub(epoch))
			mu.Unlock()
		})
	})
	done := v.Go(func() { v.Sleep(time.Second) })
	<-done
	if len(at) != 2 || at[0] != 10*time.Millisecond || at[1] != 25*time.Millisecond {
		t.Fatalf("events fired at %v, want [10ms 25ms]", at)
	}
}

func TestVirtualEventBeforeSleeperAtSameInstant(t *testing.T) {
	// An event scheduled at exactly the instant an actor wakes must run
	// before the actor resumes, so a packet "delivered at t" is visible to
	// a poller waking at t.
	v := NewVirtual(epoch)
	var delivered atomic.Bool
	v.Schedule(epoch.Add(5*time.Millisecond), func() { delivered.Store(true) })
	var sawIt bool
	done := v.Go(func() {
		v.Sleep(5 * time.Millisecond)
		sawIt = delivered.Load()
	})
	<-done
	if !sawIt {
		t.Fatal("actor waking at t did not observe event scheduled at t")
	}
}

func TestVirtualManyActorsConverge(t *testing.T) {
	v := NewVirtual(epoch)
	const actors = 8
	var total atomic.Int64
	var fns []func()
	for i := 0; i < actors; i++ {
		i := i
		fns = append(fns, func() {
			for step := 0; step < 100; step++ {
				v.Sleep(time.Duration(i+1) * time.Millisecond)
			}
			total.Add(1)
		})
	}
	goAll(v, fns...)
	if total.Load() != actors {
		t.Fatalf("finished actors = %d, want %d", total.Load(), actors)
	}
	// Slowest actor sleeps 8ms x 100.
	if got := v.Elapsed(); got != 800*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 800ms", got)
	}
}

func TestVirtualActorSpawnsActor(t *testing.T) {
	v := NewVirtual(epoch)
	var childRan atomic.Bool
	done := v.Go(func() {
		v.Sleep(10 * time.Millisecond)
		child := v.Go(func() {
			v.Sleep(10 * time.Millisecond)
			childRan.Store(true)
		})
		v.Sleep(50 * time.Millisecond)
		<-child
	})
	<-done
	if !childRan.Load() {
		t.Fatal("child actor did not run")
	}
	if got := v.Elapsed(); got != 60*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 60ms", got)
	}
}

func TestVirtualDoneActorUnblocksOthers(t *testing.T) {
	// When one actor exits, the remaining actor must keep advancing.
	v := NewVirtual(epoch)
	goAll(v,
		func() { v.Sleep(5 * time.Millisecond) },
		func() { v.Sleep(500 * time.Millisecond) })
	if got := v.Elapsed(); got != 500*time.Millisecond {
		t.Fatalf("Elapsed() = %v, want 500ms", got)
	}
}

func TestVirtualDeterministicOrderAcrossRuns(t *testing.T) {
	run := func() []int {
		v := NewVirtual(epoch)
		var mu sync.Mutex
		var order []int
		var fns []func()
		for i := 0; i < 5; i++ {
			i := i
			fns = append(fns, func() {
				v.Sleep(time.Duration(10+i) * time.Millisecond)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				v.Sleep(time.Duration(50+i) * time.Millisecond)
				mu.Lock()
				order = append(order, 100+i)
				mu.Unlock()
			})
		}
		goAll(v, fns...)
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d produced %v, first run produced %v", trial, again, first)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d produced %v, first run produced %v", trial, again, first)
			}
		}
	}
}

func TestRealClockSleepsApproximately(t *testing.T) {
	c := Real{}
	begin := c.Now()
	c.Sleep(10 * time.Millisecond)
	if got := c.Now().Sub(begin); got < 10*time.Millisecond {
		t.Fatalf("slept %v, want >= 10ms", got)
	}
	c.Sleep(-time.Hour) // must not block
}
