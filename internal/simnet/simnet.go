// Package simnet provides an in-process datagram network.
//
// It plays the role of the physical LAN + Netem box in the paper's testbed
// (§4): endpoints exchange UDP-like datagrams whose delivery is shaped by a
// pluggable per-direction Shaper (see internal/netem). It runs on the
// virtual clock: every delivery is a vclock.Virtual event, which makes the
// paper's sixty-second experiments execute in milliseconds and
// bit-reproducibly.
//
// A network belongs to its virtual world, which runs one actor or one event
// at a time, so it takes no locks: see Network for who may touch it.
//
// Semantics mirror UDP over a raw link: datagrams may be dropped (by the
// shaper, or when a receive queue overflows), duplicated, and reordered;
// they are never truncated, and they are only corrupted when the link's
// shaper implements the optional Corrupter extension (the chaos harness's
// bit-error model — real UDP's checksum is modelled separately, by
// transport.NewChecksum).
package simnet

import (
	"errors"
	"fmt"
	"time"

	"retrolock/internal/vclock"
)

// MinDelay is the smallest one-way delivery delay the network imposes even
// when a shaper asks for less: it models the link, matching the paper's
// assumption that even a LAN round trip costs time (under one millisecond).
// Determinism no longer rests on it — vclock.Virtual orders same-instant
// actors — but every checked-in table was produced with this floor.
const MinDelay = 50 * time.Microsecond

// DefaultQueueCap is the default receive-queue capacity of an endpoint, in
// datagrams. It approximates an OS socket buffer: packets arriving at a full
// queue are dropped silently, exactly like UDP.
const DefaultQueueCap = 512

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("simnet: endpoint closed")

// ErrNoRoute is returned when sending to an address nothing is bound to.
var ErrNoRoute = errors.New("simnet: no such destination")

// Shaper decides how a single datagram travels one direction of a link.
type Shaper interface {
	// Plan returns the delivery offsets, relative to the send instant, at
	// which copies of the datagram reach the destination. An empty slice
	// drops the packet; more than one entry duplicates it. Offsets below
	// MinDelay are clamped up by the network.
	Plan(now time.Time, size int) []time.Duration
}

// Appender is an optional Shaper extension that plans without allocating:
// AppendPlan appends to dst the offsets Plan would return, with the same
// draws, and returns the extended slice. The network passes each sending
// endpoint's own scratch, so a shaper that implements it costs a send no
// allocation; any other shaper is called through Plan.
type Appender interface {
	AppendPlan(dst []time.Duration, now time.Time, size int) []time.Duration
}

// Corrupter is an optional Shaper extension modelling in-flight bit errors.
// When a link's shaper implements it, Corrupt is invoked once per delivered
// copy of each datagram. It must not mutate p; to corrupt the copy it
// returns a fresh, mutated slice and true, otherwise p itself and false.
type Corrupter interface {
	Corrupt(p []byte) ([]byte, bool)
}

// ConstantDelay is a Shaper that delivers every packet exactly once after a
// fixed one-way delay.
type ConstantDelay time.Duration

// Plan implements Shaper.
func (c ConstantDelay) Plan(time.Time, int) []time.Duration {
	return []time.Duration{time.Duration(c)}
}

// AppendPlan implements Appender.
func (c ConstantDelay) AppendPlan(dst []time.Duration, _ time.Time, _ int) []time.Duration {
	return append(dst, time.Duration(c))
}

// planner adapts a Shaper without AppendPlan to Appender.
type planner struct{ Shaper }

func (p planner) AppendPlan(dst []time.Duration, now time.Time, size int) []time.Duration {
	return append(dst, p.Plan(now, size)...)
}

// Network is a fabric of named endpoints. It belongs to the virtual world
// its scheduler runs and takes no locks: the network and its endpoints may
// be touched only by the actor holding the baton, by a clock event callback,
// or by any goroutine while the world is idle (before its first Go, or after
// every actor has finished). vclock.Virtual's lock orders those turns, so
// the race detector flags an access from anywhere else.
type Network struct {
	sched vclock.Scheduler

	nodes map[string]*Endpoint
	links map[route]Shaper
	// gen counts the changes that can stale an endpoint's cached hop:
	// Close and SetLink. A cached hop is valid while its gen matches. Bind
	// needs no count: only a bound address is cached, so a Bind can only
	// take an address whose Close already counted.
	gen uint64

	// freeFlights recycles in-flight datagram records (payload buffer and
	// the delivery closure, bound once per record) so a steady-state
	// simulation sends without allocating.
	freeFlights []*flight
}

// flight is one datagram copy travelling the network: destination, source,
// its own payload buffer, and a pre-bound delivery closure handed to the
// scheduler. After delivery the record returns to the network's free list.
type flight struct {
	net  *Network
	dst  *Endpoint
	from string
	buf  []byte
	run  func()
}

func (f *flight) deliver() {
	f.dst.enqueue(f.from, f.buf, f.net.sched.Now())
	f.dst = nil
	f.net.freeFlights = append(f.net.freeFlights, f)
}

func (n *Network) newFlight() *flight {
	if l := len(n.freeFlights); l > 0 {
		f := n.freeFlights[l-1]
		n.freeFlights[l-1] = nil
		n.freeFlights = n.freeFlights[:l-1]
		return f
	}
	f := &flight{net: n}
	f.run = f.deliver
	return f
}

type route struct{ src, dst string }

// New creates a network that schedules deliveries on sched.
func New(sched vclock.Scheduler) *Network {
	return &Network{
		sched: sched,
		nodes: make(map[string]*Endpoint),
		links: make(map[route]Shaper),
	}
}

// Bind attaches a new endpoint to addr. Binding an address twice is an error.
func (n *Network) Bind(addr string) (*Endpoint, error) {
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("simnet: address %q already bound", addr)
	}
	ep := &Endpoint{net: n, addr: addr, queueCap: DefaultQueueCap, hops: make(map[string]hop)}
	n.nodes[addr] = ep
	return ep, nil
}

// MustBind is Bind for tests and examples where the address is known free.
func (n *Network) MustBind(addr string) *Endpoint {
	ep, err := n.Bind(addr)
	if err != nil {
		panic(err)
	}
	return ep
}

// SetLink installs shaper for packets flowing src -> dst. Passing nil
// restores the default (MinDelay constant delay). Each direction of a
// bidirectional link is configured independently, matching Netem's
// per-interface shaping in the paper's testbed.
func (n *Network) SetLink(src, dst string, shaper Shaper) {
	r := route{src, dst}
	n.gen++
	if shaper == nil {
		delete(n.links, r)
		return
	}
	n.links[r] = shaper
}

// SetLinkBoth installs the same shaper in both directions between a and b.
// Note that stateful shapers (e.g. rate limiters) should not be shared
// between directions; use SetLink with two instances instead.
func (n *Network) SetLinkBoth(a, b string, shaper Shaper) {
	n.SetLink(a, b, shaper)
	n.SetLink(b, a, shaper)
}

// hop is one resolved direction of a link, cached by the sending endpoint
// per destination address: the destination endpoint and the shaper's
// planning and corrupting sides, as of network generation gen.
type hop struct {
	gen     uint64
	dst     *Endpoint
	plan    Appender
	corrupt Corrupter // nil when the shaper does not corrupt
}

// resolve looks src -> dst up in the network's tables. ok is false when
// nothing is bound to dst.
func (n *Network) resolve(src, dst string) (h hop, ok bool) {
	h.dst, ok = n.nodes[dst]
	if !ok {
		return hop{}, false
	}
	shaper, linked := n.links[route{src, dst}]
	if !linked {
		shaper = ConstantDelay(MinDelay)
	}
	if a, ok := shaper.(Appender); ok {
		h.plan = a
	} else {
		h.plan = planner{shaper}
	}
	h.corrupt, _ = shaper.(Corrupter)
	h.gen = n.gen
	return h, true
}

// Datagram is a received packet together with its source address and the
// instant it was delivered into the receive queue. Payload borrows the
// endpoint's receive ring (see Endpoint.TryRecv for the validity window).
type Datagram struct {
	From    string
	Payload []byte
	At      time.Time
}

// recvSlot is one position of an endpoint's receive ring. Its payload buffer
// is owned by the ring and reused once the slot is overwritten by a later
// delivery.
type recvSlot struct {
	from string
	at   time.Time
	buf  []byte
}

// Endpoint is one bound address on a Network.
type Endpoint struct {
	net  *Network
	addr string

	ring        []recvSlot // receive queue: ring[head..head+count)
	head, count int
	queueCap    int
	closed      bool
	onArrival   func() // run by the delivery event after each enqueue

	// hops caches each destination's resolved hop, so a send costs one
	// lookup by address; planned is the scratch AppendPlan fills.
	hops    map[string]hop
	planned [2]time.Duration

	sent      int
	delivered int
	dropped   int // dropped at this endpoint's receive queue
}

// Addr returns the address the endpoint is bound to.
func (e *Endpoint) Addr() string { return e.addr }

// SetQueueCap overrides the receive-queue capacity (datagrams). Values < 1
// are treated as 1.
func (e *Endpoint) SetQueueCap(c int) {
	if c < 1 {
		c = 1
	}
	e.queueCap = c
}

// SendTo transmits payload to dst through the link's shaper. The payload is
// copied, so the caller may reuse the buffer immediately. Packets to unknown
// destinations return ErrNoRoute; packets dropped in flight or at the remote
// queue are silently lost, like UDP.
func (e *Endpoint) SendTo(dst string, payload []byte) error {
	if e.closed {
		return ErrClosed
	}
	e.sent++

	h, ok := e.hops[dst]
	if !ok || h.gen != e.net.gen {
		if h, ok = e.net.resolve(e.addr, dst); !ok {
			return ErrNoRoute
		}
		e.hops[dst] = h
	}
	// An empty plan loses the datagram in flight.
	offsets := h.plan.AppendPlan(e.planned[:0], e.net.sched.Now(), len(payload))
	for _, off := range offsets {
		if off < MinDelay {
			off = MinDelay
		}
		// Each delivered copy rides its own flight record with its own
		// payload copy (taken before SendTo returns, so the caller may
		// reuse its buffer), and may be corrupted independently; Corrupt
		// never mutates its argument.
		p := payload
		if h.corrupt != nil {
			p, _ = h.corrupt.Corrupt(payload)
		}
		f := e.net.newFlight()
		f.dst = h.dst
		f.from = e.addr
		f.buf = append(f.buf[:0], p...)
		e.net.sched.ScheduleAfter(off, f.run)
	}
	return nil
}

func (e *Endpoint) enqueue(from string, payload []byte, at time.Time) {
	if e.closed || e.count >= e.queueCap {
		e.dropped++
		return
	}
	if e.count >= len(e.ring)-1 {
		// The next free slot would be the one TryRecv returned last, whose
		// payload its caller may still be reading: grow instead.
		e.grow()
	}
	s := &e.ring[(e.head+e.count)%len(e.ring)]
	s.from = from
	s.at = at
	s.buf = append(s.buf[:0], payload...)
	e.count++
	e.delivered++
	if e.onArrival != nil {
		e.onArrival()
	}
}

// OnArrival sets fn to run each time a datagram enters the receive queue,
// inside the scheduler callback that delivers it, after the datagram is
// queued (nil removes it). fn runs while the network's scheduler runs its
// events, so it must not block. It reports false, setting nothing, when v is
// not the scheduler the network delivers on.
func (e *Endpoint) OnArrival(v *vclock.Virtual, fn func()) bool {
	if e.net.sched != vclock.Scheduler(v) {
		return false
	}
	e.onArrival = fn
	return true
}

// grow doubles the receive ring (starting at 16 slots), unwrapping the
// queued entries to the front. The ring never grows past twice the point
// where count can reach queueCap, checked by the caller.
func (e *Endpoint) grow() {
	n := 2 * len(e.ring)
	if n < 16 {
		n = 16
	}
	fresh := make([]recvSlot, n)
	for i := 0; i < e.count; i++ {
		fresh[i] = e.ring[(e.head+i)%len(e.ring)]
	}
	e.ring = fresh
	e.head = 0
}

// TryRecv pops the oldest pending datagram without blocking. The second
// result is false when the queue is empty. Receiving on a closed endpoint
// still drains packets that were queued before Close.
//
// The returned payload borrows the receive ring's buffer: it stays valid
// until the next TryRecv on the endpoint, even when deliveries land while
// the reader sleeps. Callers that retain a payload longer must copy it.
func (e *Endpoint) TryRecv() (Datagram, bool) {
	if e.count == 0 {
		return Datagram{}, false
	}
	s := &e.ring[e.head]
	d := Datagram{From: s.from, Payload: s.buf, At: s.at}
	e.head = (e.head + 1) % len(e.ring)
	e.count--
	return d, true
}

// Pending reports how many datagrams are queued for receipt.
func (e *Endpoint) Pending() int {
	return e.count
}

// Stats reports lifetime counters: datagrams sent from this endpoint,
// delivered into its queue, and dropped at its queue (overflow or closed).
func (e *Endpoint) Stats() (sent, delivered, dropped int) {
	return e.sent, e.delivered, e.dropped
}

// Close unbinds the endpoint. In-flight packets addressed to it are dropped
// on arrival.
func (e *Endpoint) Close() error {
	if !e.closed {
		e.closed = true
		delete(e.net.nodes, e.addr)
		e.net.gen++
	}
	return nil
}
