package relay

import (
	"net/netip"
	"sync"
)

// Addr is a transport address as one of the daemon's fronts sees it: a real
// UDP peer (AP set) or a simnet endpoint name (Sim set). The zero Addr means
// "unknown". Addr is comparable, which is all the relay needs — it never
// interprets an address, only matches and echoes it.
type Addr struct {
	AP  netip.AddrPort
	Sim string
}

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.Sim == "" && !a.AP.IsValid() }

// Message is one datagram moving through a front: a payload slice (backed by
// a pooled MaxDatagram buffer) plus the peer address — the source on receive,
// the destination on send.
type Message struct {
	Buf  []byte
	Addr Addr
	// At is the receive instant in Unix ns, stamped once per batch by
	// Route when per-session stats are enabled (0 otherwise). The shard
	// reads it at ingest to measure relay residence — how long the
	// datagram sat in the inbound queue.
	At int64
}

// Front is one socket of the daemon, real or simulated. Implementations are
// safe for one concurrent reader plus any number of senders.
type Front interface {
	// Recv fills ms with pending datagrams and returns how many it wrote.
	// Each ms[i].Buf must arrive cap ≥ MaxDatagram; Recv reslices it to the
	// received length. Real fronts block until at least one datagram (or an
	// error); the simnet front never blocks — its callers poll under a
	// virtual clock.
	Recv(ms []Message) (int, error)

	// Send transmits ms[0:len(ms)] and returns how many were handed to the
	// network. Sends are best-effort: datagrams may be dropped on the floor
	// exactly like UDP.
	Send(ms []Message) (int, error)

	// LocalAddr is the address clients send to, in the form the lobby
	// advertises (host:port for UDP, the endpoint name for simnet).
	LocalAddr() string

	// Close releases the socket and unblocks any Recv.
	Close() error
}

// bufPool recycles MaxDatagram-sized payload buffers across readers and
// shards, keeping the steady-state forwarding path allocation-free. It
// stores fixed-size array pointers rather than *[]byte so that putBuf can
// recover the pointer from any reslice without boxing a fresh slice header
// per round trip.
var bufPool = sync.Pool{
	New: func() any {
		return new([MaxDatagram]byte)
	},
}

// getBuf returns a full-capacity pooled buffer.
func getBuf() []byte {
	return bufPool.Get().(*[MaxDatagram]byte)[:]
}

// putBuf returns a buffer obtained from getBuf. Reslicing is fine; the pool
// restores full capacity on the way out.
func putBuf(b []byte) {
	if cap(b) < MaxDatagram {
		return // foreign buffer (tests); let it go
	}
	bufPool.Put((*[MaxDatagram]byte)(b[:MaxDatagram]))
}
