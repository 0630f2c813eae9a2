package vclock

import (
	"fmt"
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
// the order Schedule happened to be called.
func TestVirtualSameInstantEventOrder(t *testing.T) {
	v := NewVirtual(epoch)
	at := epoch.Add(5 * time.Millisecond)
	var got []string
	ev := func(tag string) func() { return func() { got = append(got, tag) } }
	v.Schedule(at, ev("clock.1")) // not an actor: schedules as actor 0
	goAll(v, func() {             // actor 2 (the root is 1)
		v.Sleep(time.Millisecond) // let actor 3 schedule first
		v.Schedule(at, ev("a2.1"))
		v.Schedule(at, func() {
			got = append(got, "a2.2")
			v.Schedule(at, ev("clock.2")) // from a callback: actor 0 again
		})
		v.Schedule(at.Add(-time.Millisecond), ev("early"))
		v.Sleep(10 * time.Millisecond)
	}, func() { // actor 3
		v.Schedule(at, ev("a3.1"))
		v.Schedule(at, ev("a3.2"))
		v.Sleep(10 * time.Millisecond)
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
