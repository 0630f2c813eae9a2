//go:build linux && (amd64 || arm64)

package relay

import (
	"net/netip"
	"syscall"
	"testing"
	"unsafe"
)

// TestSockaddrRoundTrip pins the sockaddr encoding send writes for each
// peer on each socket family and the decoding recv applies to what the
// kernel writes back. The buffer starts dirty, as a reused batch slot does.
func TestSockaddrRoundTrip(t *testing.T) {
	const (
		len4 = uint32(unsafe.Sizeof(syscall.RawSockaddrInet4{}))
		len6 = uint32(unsafe.Sizeof(syscall.RawSockaddrInet6{}))
	)
	v4 := netip.MustParseAddrPort("192.0.2.7:7391")
	v6 := netip.MustParseAddrPort("[2001:db8::7]:7391")
	mapped := netip.MustParseAddrPort("[::ffff:192.0.2.7]:7391")
	for _, tc := range []struct {
		name     string
		peer     netip.AddrPort
		v6Socket bool
		wantLen  uint32
		want     netip.AddrPort
	}{
		{"v4 peer on v4 socket", v4, false, len4, v4},
		{"v6 peer on v6 socket", v6, true, len6, v6},
		{"v4 peer on v6 socket parses back unmapped", v4, true, len6, v4},
		{"v4-mapped peer on v4 socket", mapped, false, len4, v4},
		{"v6 peer on v4 socket is skipped", v6, false, 0, netip.AddrPort{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var name [sizeofSockaddrAny]byte
			for i := range name {
				name[i] = 0xa5
			}
			n := putSockaddr(&name, tc.peer, tc.v6Socket)
			if n != tc.wantLen {
				t.Fatalf("putSockaddr(%v, v6=%v) = length %d, want %d", tc.peer, tc.v6Socket, n, tc.wantLen)
			}
			if n == 0 {
				return
			}
			if got := parseSockaddr(&name); got != tc.want {
				t.Fatalf("parseSockaddr after putSockaddr(%v, v6=%v) = %v, want %v", tc.peer, tc.v6Socket, got, tc.want)
			}
		})
	}
}
