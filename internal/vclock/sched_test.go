package vclock

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The scheduler contract: one actor at a time, in a defined order.

// A child is registered parked at the current instant: however long the
// spawner takes, no child runs and the clock does not move until the spawner
// parks, and children then run in the order of their Go calls. Fails at the
// wake-all scheduler, where A starts beside its spawner. This is the
// trafficgen.Run "Sent = 0" bug in miniature: there the clock ran to the end
// of the run between two spawns.
func TestVirtualRootActorSpawnsParked(t *testing.T) {
	v := NewVirtual(epoch)
	var ran atomic.Int32
	var order []string
	var a, b <-chan struct{}
	<-v.Go(func() {
		a = v.Go(func() { ran.Add(1); order = append(order, "A"); v.Sleep(time.Hour) })
		time.Sleep(10 * time.Millisecond) // real time: a stalled spawner
		b = v.Go(func() { ran.Add(1); order = append(order, "B") })
		if n := ran.Load(); n != 0 {
			t.Errorf("%d children ran before the root parked", n)
		}
		if now := v.Now(); !now.Equal(epoch) {
			t.Errorf("clock moved to %v before the root parked", now)
		}
		v.Sleep(time.Nanosecond) // Sleep(0) would return at once: the root has the lowest id
		if got := strings.Join(order, ""); got != "AB" {
			t.Errorf("children ran as %q before the root resumed, want AB", got)
		}
	})
	<-a
	<-b
}

// N actors sharing wake instants run in (wake, id) order, never two at once.
func TestVirtualSameInstantOrderAndSerial(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("procs", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const actors, rounds = 12, 50
			v := NewVirtual(epoch)
			type step struct {
				at time.Duration
				id int
			}
			var running, peak atomic.Int32
			var got []step // unsynchronised on purpose: -race checks the baton orders it
			fns := make([]func(), actors)
			for i := range fns {
				i := i
				fns[i] = func() {
					for r := 0; r < rounds; r++ {
						// Three periods, so every instant has several actors due.
						v.Sleep(time.Duration(1+i%3) * time.Millisecond)
						if n := running.Add(1); n > peak.Load() {
							peak.Store(n)
						}
						got = append(got, step{v.Elapsed(), i})
						runtime.Gosched() // invite an overlap
						running.Add(-1)
					}
				}
			}
			goAll(v, fns...)
			if peak.Load() != 1 {
				t.Fatalf("%d actors ran at once, want 1", peak.Load())
			}
			want := append([]step(nil), got...)
			sort.SliceStable(want, func(a, b int) bool {
				if want[a].at != want[b].at {
					return want[a].at < want[b].at
				}
				return want[a].id < want[b].id
			})
			if len(got) != actors*rounds || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d wake-ups not in (wake, id) order", len(got))
			}
		})
	}
}

// Same-instant events run in (time, scheduling actor, counter) order, not in
// the order ScheduleAfter happened to be called. Every event below is due
// 5 ms in, except "early" at 4 ms.
func TestVirtualSameInstantEventOrder(t *testing.T) {
	v := NewVirtual(epoch)
	ms := time.Millisecond
	var got []string
	ev := func(tag string) func() { return func() { got = append(got, tag) } }
	v.ScheduleAfter(5*ms, ev("clock.1")) // not an actor: schedules as actor 0
	goAll(v, func() {                    // actor 2 (the root is 1)
		v.Sleep(ms) // let actor 3 schedule first
		v.ScheduleAfter(4*ms, ev("a2.1"))
		v.ScheduleAfter(4*ms, func() {
			got = append(got, "a2.2")
			v.ScheduleAfter(0, ev("clock.2")) // from a callback: actor 0 again
		})
		v.ScheduleAfter(3*ms, ev("early"))
		v.Sleep(10 * ms)
	}, func() { // actor 3
		v.ScheduleAfter(5*ms, ev("a3.1"))
		v.ScheduleAfter(5*ms, ev("a3.2"))
		v.Sleep(10 * ms)
	})
	want := "early clock.1 a2.1 a2.2 clock.2 a3.1 a3.2"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("events ran as %q, want %q", s, want)
	}
}

// Only the baton holder may Sleep; the one case the clock can detect is a
// Sleep while nobody holds it.
func TestVirtualSleepWithoutBatonPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "only the running actor") {
			t.Fatalf("panic %q does not name the rule", msg)
		}
	}()
	NewVirtual(epoch).Sleep(time.Millisecond)
}

// An actor that is itself the next due sleeper returns from Sleep without a
// hand-off: no channel operation, no allocation.
func TestVirtualSoleSleeperNoHandoff(t *testing.T) {
	v := NewVirtual(epoch)
	<-v.Go(func() {
		before := v.handoffs
		if allocs := testing.AllocsPerRun(200, func() { v.Sleep(0) }); allocs != 0 {
			t.Errorf("Sleep(0) by the only actor allocates %.1f times", allocs)
		}
		v.Sleep(time.Second)
		if n := v.handoffs - before; n != 0 {
			t.Errorf("%d hand-offs with one actor, want 0", n)
		}
	})
}

// pingPong runs actor A, which calls body, beside actor B, which sleeps on
// A's 1 ms grid until A returns, so every Sleep(time.Millisecond) in body
// hands the baton to B and back.
func pingPong(v *Virtual, body func()) {
	var stop bool
	goAll(v, func() {
		body()
		stop = true
	}, func() {
		for !stop {
			v.Sleep(time.Millisecond)
		}
	})
}

// A hand-off between two actors is two coroutine switches and allocates
// nothing.
func TestVirtualHandoffNoAlloc(t *testing.T) {
	v := NewVirtual(epoch)
	const runs = 200
	pingPong(v, func() {
		before := v.handoffs
		if allocs := testing.AllocsPerRun(runs, func() { v.Sleep(time.Millisecond) }); allocs != 0 {
			t.Errorf("a two-actor hand-off allocates %.1f times", allocs)
		}
		if n := v.handoffs - before; n < 2*runs {
			t.Errorf("%d hand-offs in %d sleeps, want two per sleep", n, runs)
		}
	})
}

// A nap that a scheduled ring cuts short, and the hand-offs around it,
// allocate nothing.
func TestVirtualNapRingNoAlloc(t *testing.T) {
	v := NewVirtual(epoch)
	b := v.NewBell()
	ring := b.Ring
	pingPong(v, func() {
		allocs := testing.AllocsPerRun(200, func() {
			v.ScheduleAfter(500*time.Microsecond, ring)
			b.Nap(5, time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("a rung nap allocates %.1f times", allocs)
		}
	})
}

// Ring moves a nap's wake-up to the first grid point at or after the ring —
// at least one step into the nap — and never later than it was.
func TestVirtualRingRoundsUpToGrid(t *testing.T) {
	v := NewVirtual(epoch)
	b := v.NewBell()
	ms := time.Millisecond
	var woke []time.Duration
	<-v.Go(func() {
		v.ScheduleAfter(2300*time.Microsecond, b.Ring) // -> 3 ms
		v.ScheduleAfter(2900*time.Microsecond, b.Ring) // still 3 ms
		b.Nap(10, ms)
		woke = append(woke, v.Elapsed())
		v.ScheduleAfter(0, b.Ring) // rings at the nap's start: one step in
		b.Nap(10, ms)
		woke = append(woke, v.Elapsed())
		v.ScheduleAfter(ms, b.Ring) // on a 4 ms grid from 4 ms: 8 ms
		b.Nap(3, 4*ms)
		woke = append(woke, v.Elapsed())
		v.ScheduleAfter(ms, b.Ring) // the grid point it names is the wake-up
		b.Nap(1, 2*ms)
		woke = append(woke, v.Elapsed())
	})
	want := []time.Duration{3 * ms, 4 * ms, 8 * ms, 10 * ms}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("naps ended at %v, want %v", woke, want)
	}
}

// Ring does nothing to an actor that is not napping on the bell: one that
// has never napped, sleeps, or is running.
func TestVirtualRingWithoutNapIsNoOp(t *testing.T) {
	v := NewVirtual(epoch)
	b := v.NewBell()
	b.Ring() // no actor bound yet
	ms := time.Millisecond
	var woke []time.Duration
	<-v.Go(func() {
		b.Nap(1, ms) // binds the bell
		v.ScheduleAfter(2*ms, b.Ring)
		v.Sleep(10 * ms) // a plain sleep is not cut short
		woke = append(woke, v.Elapsed())
		b.Ring() // running: nothing to bring forward, nothing kept for later
		b.Nap(5, ms)
		woke = append(woke, v.Elapsed())
	})
	want := []time.Duration{11 * ms, 16 * ms}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
}

// A datagram delivered exactly on a grid point is seen by the napper at that
// point: the delivery event runs, and rings, before the actor resumes.
func TestVirtualRingOnGridPointSeenThere(t *testing.T) {
	v := NewVirtual(epoch)
	b := v.NewBell()
	var delivered bool
	var sawAt time.Duration
	<-v.Go(func() {
		v.ScheduleAfter(4*time.Millisecond, func() { delivered = true; b.Ring() })
		for !delivered {
			b.Nap(10, time.Millisecond)
		}
		sawAt = v.Elapsed()
	})
	if sawAt != 4*time.Millisecond {
		t.Fatalf("delivery at 4ms seen at %v", sawAt)
	}
}

// An actor rung to an instant another actor is due at keeps its place in
// (wake, id) order, whichever of the two has the lower id.
func TestVirtualRungNapKeepsIDOrder(t *testing.T) {
	for _, napperFirst := range []bool{true, false} {
		v := NewVirtual(epoch)
		b := v.NewBell()
		var order []string
		napper := func() {
			v.ScheduleAfter(4500*time.Microsecond, b.Ring) // -> 5 ms
			b.Nap(20, time.Millisecond)
			order = append(order, fmt.Sprintf("napper@%v", v.Elapsed()))
		}
		sleeper := func() {
			v.Sleep(5 * time.Millisecond)
			order = append(order, fmt.Sprintf("sleeper@%v", v.Elapsed()))
		}
		want := "napper@5ms sleeper@5ms"
		if napperFirst {
			goAll(v, napper, sleeper)
		} else {
			goAll(v, sleeper, napper)
			want = "sleeper@5ms napper@5ms"
		}
		if got := strings.Join(order, " "); got != want {
			t.Errorf("napper registered first %v: ran as %q, want %q", napperFirst, got, want)
		}
	}
}

// An actor that leaves through runtime.Goexit right after a rung nap ends
// alone, and a later ring of its bell does nothing.
func TestVirtualGoexitAfterNapEndsOnlyThatActor(t *testing.T) {
	v := NewVirtual(epoch)
	b := v.NewBell()
	var quit, other <-chan struct{}
	var otherAt time.Duration
	<-v.Go(func() {
		quit = v.Go(func() {
			v.ScheduleAfter(1500*time.Microsecond, b.Ring)
			v.ScheduleAfter(5*time.Millisecond, b.Ring) // after the actor is gone
			b.Nap(10, time.Millisecond)
			runtime.Goexit()
		})
		other = v.Go(func() {
			v.Sleep(8 * time.Millisecond)
			otherAt = v.Elapsed()
		})
	})
	deadline := time.After(2 * time.Second)
	for _, c := range []<-chan struct{}{quit, other} {
		select {
		case <-c:
		case <-deadline:
			t.Fatal("the world hung after a napper's Goexit")
		}
	}
	if otherAt != 8*time.Millisecond {
		t.Fatalf("the other actor woke at %v, want 8ms", otherAt)
	}
}

// BenchmarkVirtualHandoff measures one baton round trip: A hands to B and B
// back to A.
func BenchmarkVirtualHandoff(b *testing.B) {
	v := NewVirtual(epoch)
	pingPong(v, func() {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Sleep(time.Millisecond)
		}
	})
}

// A world whose last actor finished is idle; a later Go from a goroutine
// that is not an actor starts it again at the instant it stopped.
func TestVirtualIdleWorldRestarts(t *testing.T) {
	v := NewVirtual(epoch)
	<-v.Go(func() { v.Sleep(30 * time.Millisecond) })
	var startedAt time.Duration
	<-v.Go(func() {
		startedAt = v.Elapsed()
		v.Sleep(20 * time.Millisecond)
	})
	if startedAt != 30*time.Millisecond || v.Elapsed() != 50*time.Millisecond {
		t.Fatalf("second actor started at %v and the clock ended at %v, want 30ms and 50ms", startedAt, v.Elapsed())
	}
}

// An actor leaving through runtime.Goexit — what t.Fatal does in an actor —
// ends that actor only: its done channel closes and the world runs on.
func TestVirtualActorGoexitEndsOnlyThatActor(t *testing.T) {
	v := NewVirtual(epoch)
	var quit, other <-chan struct{}
	var woke atomic.Bool
	<-v.Go(func() {
		quit = v.Go(func() {
			v.Sleep(time.Millisecond)
			runtime.Goexit()
		})
		other = v.Go(func() {
			v.Sleep(10 * time.Millisecond)
			woke.Store(true)
		})
	})
	deadline := time.After(2 * time.Second)
	for _, c := range []<-chan struct{}{quit, other} {
		select {
		case <-c:
		case <-deadline:
			t.Fatal("the world hung after an actor's Goexit")
		}
	}
	if !woke.Load() {
		t.Fatal("the second actor did not run to its wake-up")
	}
}

// A panicking actor crashes the program with its own frames in the report,
// not only the driver's. The test binary re-runs itself to watch the crash.
func TestVirtualActorPanicKeepsStack(t *testing.T) {
	if os.Getenv("VCLOCK_PANIC_CHILD") == "1" {
		v := NewVirtual(epoch)
		<-v.Go(func() {
			v.Sleep(time.Millisecond)
			indexPastEnd(nil)
		})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestVirtualActorPanicKeepsStack$")
	cmd.Env = append(os.Environ(), "VCLOCK_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the panicking child exited cleanly:\n%s", out)
	}
	for _, want := range []string{"index out of range", "vclock.indexPastEnd"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("crash report lacks %q:\n%s", want, out)
		}
	}
}

func indexPastEnd(s []int) int { return s[len(s)] }
