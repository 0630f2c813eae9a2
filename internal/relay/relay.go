// Package relay implements retrolock's multi-session hosting daemon: one
// process that forwards the datagram traffic of thousands of concurrent
// two-site lockstep sessions over a small set of UDP sockets.
//
// The paper assumes exactly one session per process, paired through a
// rendezvous lobby and talking peer-to-peer. That topology breaks down the
// moment either NAT refuses hole punching or a fleet has to host millions of
// users: the hosting layer must multiplex sessions, not processes. Following
// Khan & Chabridon's reusable-sync-component argument (the sync core stays
// per-session; the network front is shared infrastructure), relay moves only
// the *forwarding* concern into a daemon and leaves the lockstep protocol
// untouched — a relayed session runs the exact same internal/core state
// machine as a direct one.
//
// # Architecture
//
//		        sockets (N)                 shards (M)
//		  ┌──────────────────┐      ┌───────────────────────┐
//		  │ batched reader 0 │──┬──▶│ shard 0: sessions, Q  │──▶ batched writes
//		  │ batched reader 1 │──┼──▶│ shard 1: sessions, Q  │──▶
//		  │       ...        │──┼──▶│          ...          │
//		  └──────────────────┘  └──▶│ shard M-1             │──▶
//		                             └───────────────────────┘
//
//	  - Every relayed datagram carries a 9-byte prefix: a 64-bit session token
//	    plus the sender's site number. The token's low bits name the owning
//	    shard, so a reader routes a packet with two loads and a mask — no map,
//	    no lock shared across shards.
//	  - Each shard is a shared-nothing event loop: it owns its sessions, its
//	    bounded inbound queue, and its outbound batch. Readers push into a
//	    shard's queue under its lock, then in real time run the shard to
//	    completion themselves unless another goroutine does; nothing in the
//	    packet path takes a lock owned by another shard.
//	  - Socket I/O is batched: on Linux the UDP front drains and flushes with
//	    recvmmsg/sendmmsg (pooled message buffers, one syscall per batch);
//	    elsewhere it degrades to one datagram per syscall behind the same
//	    interface. A simnet front runs the identical shard loops in virtual
//	    time, which is how CI soaks ≥10k concurrent sessions under chaos
//	    phases in seconds.
//	  - Admission is the lobby's job (internal/lobby's Placer): a JOIN either
//	    yields a direct PEER reply (the paper's path) or a relayd placement —
//	    a token plus the shard's socket address. The daemon learns each
//	    site's transport address from its first valid datagram and afterwards
//	    refuses to rebind it from the data path (see Shard.ingest): a valid
//	    token from an unexpected source is counted and dropped, never allowed
//	    to steal an active session's return path. Rebinds are control-plane
//	    only (a re-JOIN through the lobby).
//
// # Memory budgets
//
// Every per-session allocation is bounded: a session holds two peer slots
// and one fixed-capacity pending ring (datagrams addressed to a site whose
// address is not yet known), byte-budgeted like the PR 1 input rings. Shard
// queues are bounded and drop-with-count on overflow. The steady-state
// forwarding path reuses pooled buffers and allocates nothing.
package relay

import (
	"encoding/binary"
	"fmt"
)

// MaxDatagram is the largest relayed datagram, prefix included. It must
// admit the sync protocol's largest message — a late-join savestate chunk
// (core.SnapChunkPayload, 8 KiB) plus headers — with room to spare.
const MaxDatagram = 9216

// HeaderLen is the relay prefix every datagram carries: an 8-byte big-endian
// session token followed by one site byte (0 or 1).
const HeaderLen = 9

// MaxPayload is the largest payload a client may relay.
const MaxPayload = MaxDatagram - HeaderLen

// shardBits is how many low token bits name the owning shard; MaxShards
// follows from it. 10 bits = 1024 shards is far beyond one process's core
// count while leaving 54 bits of entropy + sequence in every token.
const shardBits = 10

// MaxShards is the largest shard count a daemon may be configured with.
const MaxShards = 1 << shardBits

// Token identifies one hosted session. The low shardBits bits name the
// owning shard (so demux is a mask, not a map); the rest carry a per-shard
// sequence and random salt, so tokens are unique for the daemon's lifetime
// and not guessable from each other.
type Token uint64

// MakeToken assembles a token for shard idx from a sequence number and a
// random salt.
func MakeToken(shard int, seq uint32, salt uint32) Token {
	return Token(uint64(salt)<<32 | uint64(seq&0x3FFFFF)<<shardBits | uint64(shard)&(MaxShards-1))
}

// ShardIndex returns the shard the token's low bits name. The result is
// always in [0, MaxShards); callers must still bounds-check it against the
// configured shard count.
func (t Token) ShardIndex() int { return int(t & (MaxShards - 1)) }

// String renders the token the way the lobby protocol carries it.
func (t Token) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseToken parses the lobby wire form (16 hex digits).
func ParseToken(s string) (Token, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("relay: token %q: want 16 hex digits", s)
	}
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("relay: token %q: bad hex digit %q", s, c)
		}
		v = v<<4 | d
	}
	return Token(v), nil
}

// PutHeader writes the relay prefix into buf, which must hold at least
// HeaderLen bytes, and returns HeaderLen.
func PutHeader(buf []byte, t Token, site int) int {
	binary.BigEndian.PutUint64(buf, uint64(t))
	buf[8] = byte(site)
	return HeaderLen
}

// ParseHeader splits a relayed datagram into its prefix and payload. ok is
// false for runts (shorter than HeaderLen).
func ParseHeader(p []byte) (t Token, site int, payload []byte, ok bool) {
	if len(p) < HeaderLen {
		return 0, 0, nil, false
	}
	return Token(binary.BigEndian.Uint64(p)), int(p[8]), p[HeaderLen:], true
}
