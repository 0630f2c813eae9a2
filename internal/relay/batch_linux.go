//go:build linux && (amd64 || arm64)

package relay

// Batched datagram I/O via the recvmmsg/sendmmsg syscalls: one kernel
// crossing moves up to batchSize datagrams, which is where a multi-session
// relay spends its life. The stdlib exposes neither call and the usual
// wrapper (golang.org/x/net/ipv4) is not a dependency of this module, so the
// mmsghdr plumbing lives here, confined to the 64-bit Linux targets whose
// struct layout it encodes (Msghdr is 56 bytes, 8-aligned, on both amd64 and
// arm64; mmsghdr appends a uint32 length plus padding to 64).
//
// Readiness integrates with the Go netpoller through syscall.RawConn: each
// batch attempt runs non-blocking (MSG_DONTWAIT) inside RawConn.Read/Write,
// which parks the goroutine on EAGAIN instead of spinning. The attempt is a
// method value bound once per direction in newBatcher, and it reads its
// window and writes its result through the direction's batchState: a closure
// built per call would escape into RawConn and cost three allocations per
// receive and five per flush.

import (
	"net"
	"net/netip"
	"sync"
	"syscall"
	"unsafe"
)

// batchSize is how many datagrams one syscall moves at most.
const batchSize = 64

// sizeofSockaddrAny matches struct sockaddr_storage as syscall uses it.
const sizeofSockaddrAny = 112

type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// batchState is one direction's pre-allocated syscall scaffolding: mmsghdr
// array, iovecs and sockaddr buffers, all fixed for the front's lifetime so
// the hot path performs zero allocations.
type batchState struct {
	hs    [batchSize]mmsghdr
	iov   [batchSize]syscall.Iovec
	names [batchSize][sizeofSockaddrAny]byte

	// One attempt moves hs[lo:hi] through mmsg and leaves its result in n
	// and errno. attempt is s.try, bound once so passing it to RawConn
	// allocates nothing.
	mmsg    func(fd uintptr, hs []mmsghdr) (int, syscall.Errno)
	attempt func(fd uintptr) bool
	lo, hi  int
	n       int
	errno   syscall.Errno
}

func (s *batchState) init(mmsg func(uintptr, []mmsghdr) (int, syscall.Errno)) {
	for i := range s.hs {
		s.hs[i].Hdr.Name = &s.names[i][0]
		s.hs[i].Hdr.Namelen = sizeofSockaddrAny
		s.hs[i].Hdr.Iov = &s.iov[i]
		s.hs[i].Hdr.Iovlen = 1
	}
	s.mmsg = mmsg
	s.attempt = s.try
}

// try is one non-blocking attempt; RawConn.Read/Write repeat it after each
// readiness wake-up until it reports anything but EAGAIN.
func (s *batchState) try(fd uintptr) bool {
	s.n, s.errno = s.mmsg(fd, s.hs[s.lo:s.hi])
	return s.errno != syscall.EAGAIN
}

type batcher struct {
	rc syscall.RawConn
	v6 bool // socket family: true for AF_INET6 (incl. dual-stack wildcard)

	// Recv state is single-reader by contract; send state is shared by all
	// shards writing through this front.
	r   batchState
	wmu sync.Mutex
	w   batchState
}

// newBatcher prepares the mmsg scaffolding for conn.
func newBatcher(conn *net.UDPConn) (*batcher, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	la := conn.LocalAddr().(*net.UDPAddr)
	b := &batcher{rc: rc, v6: la.IP.To4() == nil}
	b.r.init(recvmmsg)
	b.w.init(sendmmsg)
	return b, nil
}

func recvmmsg(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return int(n), e
}

func sendmmsg(fd uintptr, hs []mmsghdr) (int, syscall.Errno) {
	n, _, e := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&hs[0])), uintptr(len(hs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return int(n), e
}

// recv blocks until at least one datagram is ready, then drains up to
// min(len(ms), batchSize) in one recvmmsg call.
func (b *batcher) recv(ms []Message) (int, error) {
	k := len(ms)
	if k > batchSize {
		k = batchSize
	}
	for i := 0; i < k; i++ {
		buf := ms[i].Buf[:cap(ms[i].Buf)]
		b.r.iov[i].Base = &buf[0]
		b.r.iov[i].SetLen(len(buf))
		b.r.hs[i].Hdr.Namelen = sizeofSockaddrAny
		ms[i].Buf = buf
	}
	b.r.lo, b.r.hi = 0, k
	if err := b.rc.Read(b.r.attempt); err != nil {
		return 0, err
	}
	if b.r.errno != 0 {
		return 0, b.r.errno
	}
	for i := 0; i < b.r.n; i++ {
		ms[i].Buf = ms[i].Buf[:b.r.hs[i].Len]
		ms[i].Addr = Addr{AP: parseSockaddr(&b.r.names[i])}
	}
	return b.r.n, nil
}

// send flushes all of ms, skipping datagrams the kernel refuses (best-effort
// UDP). It returns how many were handed to the network.
func (b *batcher) send(ms []Message) (int, error) {
	b.wmu.Lock()
	defer b.wmu.Unlock()
	sent := 0
	for off := 0; off < len(ms); {
		k := len(ms) - off
		if k > batchSize {
			k = batchSize
		}
		live := 0
		for i := 0; i < k; i++ {
			m := &ms[off+i]
			if !m.Addr.AP.IsValid() || len(m.Buf) == 0 {
				continue
			}
			nl := putSockaddr(&b.w.names[live], m.Addr.AP, b.v6)
			if nl == 0 {
				continue // family mismatch (v6 peer on a v4 socket)
			}
			b.w.hs[live].Hdr.Namelen = nl
			b.w.iov[live].Base = &m.Buf[0]
			b.w.iov[live].SetLen(len(m.Buf))
			live++
		}
		off += k
		for done := 0; done < live; {
			b.w.lo, b.w.hi = done, live
			if err := b.rc.Write(b.w.attempt); err != nil {
				return sent, err
			}
			if b.w.errno != 0 {
				// Per-datagram refusal (EPERM, unreachable): skip it and
				// keep flushing — a relay must never livelock on one peer.
				done++
				continue
			}
			done += b.w.n
			sent += b.w.n
		}
	}
	return sent, nil
}

// parseSockaddr decodes a kernel-written sockaddr into netip.AddrPort,
// unmapping v4-in-v6 so comparisons are canonical.
func parseSockaddr(name *[sizeofSockaddrAny]byte) netip.AddrPort {
	switch family := *(*uint16)(unsafe.Pointer(&name[0])); family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		port := uint16(name[2])<<8 | uint16(name[3])
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		port := uint16(name[2])<<8 | uint16(name[3])
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	return netip.AddrPort{}
}

// putSockaddr encodes ap for a socket of the given family and returns the
// sockaddr length (0 when the address cannot be expressed in that family).
func putSockaddr(name *[sizeofSockaddrAny]byte, ap netip.AddrPort, v6 bool) uint32 {
	addr := ap.Addr()
	if v6 {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		sa.Addr = addr.As16() // v4 maps to ::ffff:a.b.c.d
		name[2] = byte(ap.Port() >> 8)
		name[3] = byte(ap.Port())
		return uint32(unsafe.Sizeof(*sa))
	}
	if addr.Is6() && !addr.Is4In6() {
		return 0
	}
	sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
	*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	sa.Addr = addr.Unmap().As4()
	name[2] = byte(ap.Port() >> 8)
	name[3] = byte(ap.Port())
	return uint32(unsafe.Sizeof(*sa))
}
