package vclock

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// evKey is an event's place in the run order.
type evKey struct {
	at     int64
	by, n  uint64
	serial int // schedule call number, for messages only
}

func compareEvKeys(a, b evKey) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.by, b.by); c != 0 {
		return c
	}
	return cmp.Compare(a.n, b.n)
}

// eventOracle mirrors a world's event queue as a plain slice. Every schedule
// records the key the clock gave the event, and every callback checks that
// its event is the first of a slices.SortFunc over everything pending.
type eventOracle struct {
	t       *testing.T
	v       *Virtual
	pending []evKey // guarded by v.mu
	serial  int
	fired   int
}

// after schedules fn d from now, as ScheduleAfter does, and records its key.
func (o *eventOracle) after(d time.Duration, fn func()) {
	v := o.v
	v.mu.Lock()
	defer v.mu.Unlock()
	by := v.cur
	if by == nil {
		by = &v.clock
	}
	o.serial++
	k := evKey{at: v.now.Load() + int64(max(d, 0)), by: by.id, n: by.nev + 1, serial: o.serial}
	v.scheduleLocked(k.at, func() { o.fire(k); fn() })
	if by.nev != k.n {
		o.t.Errorf("event %d numbered %d by actor %d, want %d", k.serial, by.nev, k.by, k.n)
	}
	o.pending = append(o.pending, k)
}

func (o *eventOracle) fire(k evKey) {
	o.v.mu.Lock()
	defer o.v.mu.Unlock()
	slices.SortFunc(o.pending, compareEvKeys)
	if want := o.pending[0]; want != k {
		o.t.Errorf("event %d (at %d, by %d, n %d) ran before event %d (at %d, by %d, n %d)",
			k.serial, k.at, k.by, k.n, want.serial, want.at, want.by, want.n)
		o.pending = slices.DeleteFunc(o.pending, func(p evKey) bool { return p == k })
	} else {
		o.pending = o.pending[1:]
	}
	o.fired++
}

// The value heap pops events in exactly the order of a sort over
// (at, by, n), for seeded random schedules: forty actors sleeping and
// scheduling on a coarse grid (so instants tie), callbacks scheduling more
// events, and goroutines that are not actors scheduling while the world
// runs and before it starts.
func TestVirtualEventOrderMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		v := NewVirtual(epoch)
		o := &eventOracle{t: t, v: v}
		grid := func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(4)) * 100 * time.Microsecond }
		cbRng := rand.New(rand.NewSource(seed)) // used only by callbacks, which run one at a time
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			return func() {
				if depth < 3 && cbRng.Intn(3) == 0 {
					for i := cbRng.Intn(3); i >= 0; i-- {
						o.after(grid(cbRng), spawn(depth+1))
					}
				}
			}
		}
		for i := 0; i < 20; i++ { // the world is idle: these schedule as actor 0
			o.after(grid(cbRng), spawn(0))
		}
		actors := make([]func(), 40)
		for a := range actors {
			r := rand.New(rand.NewSource(seed*1000 + int64(a)))
			actors[a] = func() {
				for round := 0; round < 30; round++ {
					for i := r.Intn(4); i > 0; i-- {
						o.after(grid(r), spawn(0))
					}
					v.Sleep(grid(r))
				}
			}
		}
		var outsiders sync.WaitGroup
		for g := 0; g < 2; g++ {
			outsiders.Add(1)
			r := rand.New(rand.NewSource(-seed - int64(g)))
			go func() {
				defer outsiders.Done()
				for i := 0; i < 200; i++ {
					// Strictly after now, so never ahead of an event that
					// was popped but has not reached its check yet.
					o.after(time.Microsecond+grid(r), func() {})
					runtime.Gosched()
				}
			}()
		}
		goAll(v, actors...)
		outsiders.Wait()
		if o.fired < 1000 {
			t.Fatalf("seed %d: only %d events ran", seed, o.fired)
		}
	}
}

// Steady-state scheduling and dispatch reuse the heap's array: an actor that
// schedules events and sleeps past them, beside one it hands the baton to,
// allocates nothing.
func TestVirtualScheduleDispatchNoAlloc(t *testing.T) {
	v := NewVirtual(epoch)
	var ran int
	fn := func() { ran++ }
	pingPong(v, func() {
		allocs := testing.AllocsPerRun(200, func() {
			v.ScheduleAfter(0, fn)
			v.ScheduleAfter(300*time.Microsecond, fn)
			v.ScheduleAfter(300*time.Microsecond, fn)
			v.Sleep(time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("scheduling three events and sleeping past them allocates %.1f times", allocs)
		}
	})
	if ran != 3*201 {
		t.Errorf("%d callbacks ran, want %d", ran, 3*201)
	}
}
