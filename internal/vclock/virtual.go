//go:build go1.23

package vclock

import (
	"container/heap"
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a discrete-event Clock. A set of registered actors runs against
// it, one at a time: the running actor holds the baton until it parks in
// Sleep or finishes, and only then does the clock jump to the earliest
// pending wake-up or scheduled event, run what is due and hand the baton to
// exactly one sleeper. Sixty seconds of simulated game play therefore cost
// only as much wall time as the actors' own computation, and a run's
// interleaving is a property of the program, not of the host's scheduler or
// GOMAXPROCS.
//
// Actors are coroutines (iter.Pull) resumed by one driver goroutine per
// running world, so a hand-off is a coroutine switch on the driver's thread:
// no other goroutine is readied and no idle thread is woken.
//
// Ordering contract:
//
//   - Actors get an id in the program order of their Go calls and are
//     registered parked at the current instant, so a child never runs beside
//     its spawner and cannot be overtaken by the clock before its first
//     Sleep. Sleepers wake in (wake instant, actor id) order.
//   - Events run in (instant, scheduling actor id, that actor's event
//     counter) order; event callbacks and goroutines that are not actors
//     schedule as actor 0. Every event due at an instant runs before any
//     sleeper due at that instant resumes, so a packet "delivered at t" is
//     visible to a poller waking at t.
//   - Schedule callbacks run while every actor is parked, so they may freely
//     mutate state shared with actors; they must not Sleep.
//
// Rules for correct use:
//
//   - Only the running actor may call Sleep. Sleep panics when nobody holds
//     the baton; a stray goroutine sleeping beside a running actor cannot be
//     told from that actor and corrupts the schedule.
//   - Actors must not block on anything other than Sleep (channels, mutexes
//     held across Sleep, ...); all cross-actor communication has to go
//     through data structures that are polled, such as simnet queues.
//   - To start several actors at one instant, start them from one root actor
//     (a Go whose body makes the Go calls and returns): nothing runs until
//     the root parks or returns. Go from a goroutine that is not an actor
//     works, but when no actor is running it starts the driver, and the
//     child may start at once, beside its spawner.
//
// Together with seeded randomness in the network emulator this yields fully
// reproducible runs: the experiment binaries print identical series on every
// invocation, at any GOMAXPROCS.
type Virtual struct {
	mu    sync.Mutex
	start time.Time
	// now is the current instant in ns since start. Only the baton holder
	// moves it, so actors and event callbacks read it without the lock.
	now atomic.Int64

	// cur holds the baton: the running actor, &clock while the clock itself
	// runs due events, nil when no driver runs: every actor has finished.
	cur      *actor
	clock    actor // id 0
	lastID   uint64
	handoffs uint64 // batons Sleep passed to another actor (tests read it)
	sleepers sleeperQueue
	events   eventQueue

	// The free list recycles event records so a steady-state simulation —
	// every frame sleeps once and schedules a few deliveries — settles to
	// zero allocations per frame. A sleeping actor is its own sleeper record.
	freeEvents []*event
}

// NewVirtual returns a virtual clock whose current instant is start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{start: start}
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time { return v.start.Add(v.Elapsed()) }

// Elapsed returns how much virtual time has passed since the clock was
// created.
func (v *Virtual) Elapsed() time.Duration { return time.Duration(v.now.Load()) }

// Go runs fn as a new actor and returns a channel that is closed when fn
// returns (or its goroutine exits through runtime.Goexit). The actor is
// registered before Go returns — parked at the current instant, behind every
// actor registered earlier — and fn starts when the baton reaches it.
func (v *Virtual) Go(fn func()) <-chan struct{} {
	a := &actor{done: make(chan struct{})}
	a.resume, _ = iter.Pull(func(yield func(*actor) bool) {
		a.yield = yield
		returned := false
		defer func() {
			// iter.Pull re-raises a panic from the driver, where the actor's
			// frames are gone: keep them in the value.
			if p := recover(); p != nil {
				panic(fmt.Sprintf("%v\n\nvclock actor stack:\n%s", p, debug.Stack()))
			}
			close(a.done)
			if !returned {
				// runtime.Goexit (t.Fatal in an actor), which iter.Pull
				// passes on to the driver: end only this actor, and let a
				// fresh driver run the rest of the world.
				go v.drive()
			}
		}()
		fn()
		returned = true
	})
	v.mu.Lock()
	defer v.mu.Unlock()
	v.lastID++
	a.id, a.wake = v.lastID, v.now.Load()
	heap.Push(&v.sleepers, a)
	if v.cur == nil {
		v.cur = &v.clock // until the driver dispatches
		go v.drive()
	}
	return a.done
}

// drive gives the baton to one actor after another and exits, under the
// lock, when none is left. It resumes the holder and gets the next one back
// from the holder's Sleep; when an actor finishes, the driver dispatches.
func (v *Virtual) drive() {
	for {
		v.mu.Lock()
		a := v.dispatchLocked()
		v.mu.Unlock()
		if a == nil {
			return
		}
		for next, ok := a.resume(); ok; next, ok = a.resume() {
			a = next
		}
	}
}

// Sleep parks the calling actor until at least d of virtual time has passed.
// A non-positive d parks for zero duration, which still lets events and
// lower-numbered actors due at the current instant run first.
func (v *Virtual) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	a := v.cur
	if a == nil || a == &v.clock {
		v.mu.Unlock()
		panic("vclock: Sleep by a goroutine that does not hold the baton: only the running actor (started with Go) may Sleep, and event callbacks must not block")
	}
	a.wake = v.now.Load() + int64(d)
	heap.Push(&v.sleepers, a)
	next := v.dispatchLocked()
	v.mu.Unlock()
	if next != a {
		// Hand-off: switch back to the driver, which resumes next.
		v.handoffs++
		a.yield(next)
	}
}

// Schedule runs fn when the virtual clock reaches at. If at is not after the
// current instant, fn runs at the next advance. Callbacks execute while all
// actors are parked and may call Schedule themselves.
func (v *Virtual) Schedule(at time.Time, fn func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.scheduleLocked(int64(at.Sub(v.start)), fn)
}

// ScheduleAfter runs fn once d of virtual time has passed.
func (v *Virtual) ScheduleAfter(d time.Duration, fn func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	v.scheduleLocked(v.now.Load()+int64(d), fn)
}

func (v *Virtual) scheduleLocked(at int64, fn func()) {
	by := v.cur
	if by == nil {
		by = &v.clock
	}
	var e *event
	if n := len(v.freeEvents); n > 0 {
		e = v.freeEvents[n-1]
		v.freeEvents[n-1] = nil
		v.freeEvents = v.freeEvents[:n-1]
	} else {
		e = &event{}
	}
	by.nev++
	e.at, e.by, e.n, e.fn = at, by.id, by.nev, fn
	heap.Push(&v.events, e)
}

// dispatchLocked is called as the baton holder parks or finishes, and by a
// driver as it starts. The clock takes the baton, moves time to the earliest
// pending wake-up, running every event due on the way (unlocked), and gives
// the baton to the first sleeper, which it returns — nil when no actor is
// left, which freezes the clock.
func (v *Virtual) dispatchLocked() *actor {
	v.cur = &v.clock
	for len(v.sleepers) > 0 {
		if len(v.events) > 0 && v.events[0].at <= v.sleepers[0].wake {
			e := heap.Pop(&v.events).(*event)
			if e.at > v.now.Load() {
				v.now.Store(e.at)
			}
			fn := e.fn
			e.fn = nil // release the closure; the record is recycled
			v.freeEvents = append(v.freeEvents, e)
			v.mu.Unlock()
			fn()
			v.mu.Lock()
			continue
		}
		a := heap.Pop(&v.sleepers).(*actor)
		if a.wake > v.now.Load() {
			v.now.Store(a.wake)
		}
		v.cur = a
		return a
	}
	v.cur = nil
	return nil
}

// actor is one registered coroutine; while it sleeps it is its own entry in
// the sleeper queue.
type actor struct {
	id   uint64
	wake int64  // ns since start
	nev  uint64 // events scheduled so far: the event tie-break counter

	resume func() (*actor, bool) // runs the actor until it hands the baton to the actor returned
	yield  func(*actor) bool     // called by the actor: back to the driver
	done   chan struct{}
}

type sleeperQueue []*actor

func (q sleeperQueue) Len() int { return len(q) }
func (q sleeperQueue) Less(i, j int) bool {
	if q[i].wake != q[j].wake {
		return q[i].wake < q[j].wake
	}
	return q[i].id < q[j].id
}
func (q sleeperQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *sleeperQueue) Push(x interface{}) { *q = append(*q, x.(*actor)) }
func (q *sleeperQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// event is one scheduled callback, ordered by (at, by, n).
type event struct {
	at int64  // ns since start
	by uint64 // id of the actor that scheduled it
	n  uint64 // that actor's event counter
	fn func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].by != q[j].by {
		return q[i].by < q[j].by
	}
	return q[i].n < q[j].n
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}
