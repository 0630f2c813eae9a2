// Package transport defines the point-to-point datagram connection used by
// the sync module, plus implementations for every substrate the paper's
// system runs on:
//
//   - Sim: an in-process connection over internal/simnet, used by the
//     experiment harness (virtual time) and the quickstart example.
//   - UDP: a real UDP socket with a background reader, used for live play
//     (§2: "a UDP-based communication channel will be established").
//   - ARQ: a reliable in-order layer over any Conn, modelling the TCP
//     baseline the paper argues against in §3.1 ("As a reliable transport,
//     TCP solves those problems. However, it is problematic in satisfying
//     the real time constraint").
//
// All connections are message-oriented and connected to a single peer.
// Receiving never blocks: a blocked SyncInput polls TryRecv, mirroring the
// paper's two-thread produce/consume design without hiding timing behaviour
// inside the transport. Over a virtual clock, a stack whose every layer
// implements Notifier lets it skip the polls that would find nothing.
package transport

import (
	"errors"
	"time"

	"retrolock/internal/vclock"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a connected, unreliable (unless wrapped), message-preserving
// channel to a single peer. Implementations are safe for concurrent use.
type Conn interface {
	// Send transmits one datagram. The buffer may be reused immediately
	// after Send returns. Loss, duplication and reordering are permitted
	// (the sync module implements its own reliability, §3.1).
	Send(p []byte) error

	// TryRecv pops the oldest pending datagram without blocking. ok is
	// false when nothing is pending. The returned slice borrows the
	// connection's receive buffering: it is valid until the next TryRecv
	// on the same connection. Callers that retain a payload must copy it
	// (the sync module decodes every datagram before polling again).
	TryRecv() (p []byte, ok bool)

	// Close releases the connection. Further Sends fail with ErrClosed;
	// TryRecv may drain already-received datagrams.
	Close() error

	// LocalAddr and RemoteAddr identify the two ends, for logging.
	LocalAddr() string
	RemoteAddr() string
}

// Notifier is implemented by conns that can say when a TryRecv could next
// find work, so that a reader on a virtual clock can nap between those
// instants instead of polling: a datagram arrives, or a timer inside the
// stack (an ARQ retransmission) comes due. Wrappers implement it by asking
// the conn they wrap, and fail when that conn cannot answer.
type Notifier interface {
	// NotifyArrival arranges for fn to run, inside the clock event that
	// delivers it, whenever a datagram reaches the bottom of the stack. It
	// reports false when some layer cannot, or when the stack's deliveries
	// or timers run on another clock than v.
	NotifyArrival(v *vclock.Virtual, fn func()) bool

	// NextTimer reports the earliest instant at which a TryRecv does timed
	// work, and false when no such work is pending.
	NextTimer() (time.Time, bool)
}

// notifyArrival is NotifyArrival on a conn that may not implement Notifier.
func notifyArrival(c Conn, v *vclock.Virtual, fn func()) bool {
	n, ok := c.(Notifier)
	return ok && n.NotifyArrival(v, fn)
}

// nextTimer is NextTimer on a conn that may not implement Notifier.
func nextTimer(c Conn) (time.Time, bool) {
	if n, ok := c.(Notifier); ok {
		return n.NextTimer()
	}
	return time.Time{}, false
}
