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
//   - Only the running actor may call Sleep or Bell.Nap. They panic when
//     nobody holds the baton; a stray goroutine sleeping beside a running
//     actor cannot be told from that actor and corrupts the schedule.
//   - Actors must not block on anything other than Sleep and Nap (channels,
//     mutexes held across Sleep, ...). Cross-actor communication goes
//     through data structures the receiver polls, such as simnet queues; a
//     receiver that naps on a Bell instead of polling on a fixed period has
//     the event that fills the structure ring the bell.
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
	handoffs uint64 // batons Sleep and Nap passed to another actor (tests read it)
	parks    uint64 // Sleep and Nap calls (tests read it)
	sleepers sleeperQueue

	// events holds scheduled callbacks by value, so a steady-state
	// simulation — every frame sleeps once and schedules a few deliveries —
	// reuses the heap's array and settles to zero allocations per frame. A
	// sleeping actor is its own sleeper record.
	events eventHeap
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
	v.parkLocked(v.holderLocked(), int64(d))
}

// holderLocked returns the running actor, panicking when the caller cannot
// be one.
func (v *Virtual) holderLocked() *actor {
	a := v.cur
	if a == nil || a == &v.clock {
		v.mu.Unlock()
		panic("vclock: Sleep by a goroutine that does not hold the baton: only the running actor (started with Go) may Sleep, and event callbacks must not block")
	}
	return a
}

// parkLocked parks the running actor a for d ns and returns, unlocked, once
// the baton is back with it.
func (v *Virtual) parkLocked(a *actor, d int64) {
	v.parks++
	a.wake = v.now.Load() + d
	heap.Push(&v.sleepers, a)
	next := v.dispatchLocked()
	v.mu.Unlock()
	if next != a {
		// Hand-off: switch back to the driver, which resumes next.
		v.handoffs++
		a.yield(next)
	}
}

// A Bell lets clock events cut an actor's nap short. The actor parks in Nap
// on a grid of instants — its nap's start plus whole multiples of a step —
// and an event callback that learns of work for it calls Ring, which moves
// the wake-up forward to the first grid point at or after the ring. An actor
// that polls on that grid can nap until its next timer instead: a poll it
// skips is one no ring arrived before, so it would have found nothing.
type Bell struct {
	v *Virtual
	a *actor // the actor that last napped on the bell

	from, step int64 // the current nap's grid, in ns since start
}

// NewBell returns a bell on v; the actor that naps on it is bound at Nap.
func (v *Virtual) NewBell() *Bell { return &Bell{v: v} }

// Nap parks the calling actor like Sleep(n*step), unless Ring cuts the nap
// short. n below one naps one step; a step below 1ns counts as 1ns.
func (b *Bell) Nap(n int64, step time.Duration) {
	v := b.v
	n, step = max(n, 1), max(step, 1)
	v.mu.Lock()
	a := v.holderLocked()
	b.a, a.nap = a, b
	b.from, b.step = v.now.Load(), int64(step)
	v.parkLocked(a, n*b.step)
}

// Ring brings the bell's nap forward to the first grid point at or after the
// current instant, never earlier than one step into the nap and never later
// than its wake-up. On an actor that is not napping on the bell — it runs,
// sleeps, or has finished — Ring does nothing.
func (b *Bell) Ring() {
	v := b.v
	v.mu.Lock()
	defer v.mu.Unlock()
	a := b.a
	if a == nil || a.nap != b {
		return
	}
	at := b.from + b.step
	if late := v.now.Load() - at; late > 0 {
		at += (late + b.step - 1) / b.step * b.step
	}
	if at < a.wake {
		a.wake = at
		heap.Fix(&v.sleepers, a.index)
	}
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
	by.nev++
	v.events.push(event{at: at, by: by.id, n: by.nev, fn: fn})
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
			e := v.events.pop()
			if e.at > v.now.Load() {
				v.now.Store(e.at)
			}
			v.mu.Unlock()
			e.fn()
			v.mu.Lock()
			continue
		}
		a := heap.Pop(&v.sleepers).(*actor)
		a.nap = nil
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
	id    uint64
	wake  int64  // ns since start
	nev   uint64 // events scheduled so far: the event tie-break counter
	index int    // position in the sleeper queue while parked
	nap   *Bell  // the bell it naps on, nil when it is not napping

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
func (q sleeperQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *sleeperQueue) Push(x interface{}) {
	a := x.(*actor)
	a.index = len(*q)
	*q = append(*q, a)
}
func (q *sleeperQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// event is one scheduled callback. Events run in (at, by, n) order, a total
// order: an actor numbers its events, so no two share (by, n).
type event struct {
	at int64  // ns since start
	by uint64 // id of the actor that scheduled it
	n  uint64 // that actor's event counter
	fn func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.by != o.by {
		return e.by < o.by
	}
	return e.n < o.n
}

// eventHeap is a 4-ary min-heap of events by value: a pop compares up to
// four siblings per level of a tree half as deep as a binary one, all held
// in one array with no per-event pointer or interface call.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() event {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q[n] = event{} // release the closure
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m, end := c, min(c+4, n)
			for j := c + 1; j < end; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	*h = q
	return top
}
