package relay

import (
	"testing"
	"time"
)

// udpRoundTrip moves one batch through a pair of loopback fronts the way a
// relay sees it: client sends out to the relay, the relay echoes every
// datagram it receives back to its source in the batches Recv returned, and
// client reads all of them back into in. Each Recv may return fewer
// datagrams than asked for, so both sides loop until the whole batch is in.
func udpRoundTrip(client, relay *UDPFront, out, in []Message) error {
	if _, err := client.Send(out); err != nil {
		return err
	}
	for got := 0; got < len(out); {
		n, err := relay.Recv(in)
		if err != nil {
			return err
		}
		if _, err := relay.Send(in[:n]); err != nil {
			return err
		}
		got += n
	}
	for got := 0; got < len(out); {
		n, err := client.Recv(in[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// TestRelayUDPFrontDoesNotAllocate is the tier-1 twin of the root
// BenchmarkRelayUDPFront: a 64-datagram batch round-trips between two
// loopback UDPFronts without allocating, on the recvmmsg/sendmmsg path and
// on the portable one-datagram-per-syscall path the front falls back to
// (forced here by dropping the batcher, as on a platform without one).
func TestRelayUDPFrontDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are gated in non-race builds only, like the other hot-path twins")
	}
	const batch = 64
	for _, batched := range []bool{true, false} {
		name := "portable"
		if batched {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			fronts, _ := listenUDPFronts(t, 2)
			client, relay := fronts[0].(*UDPFront), fronts[1].(*UDPFront)
			defer client.Close()
			defer relay.Close()
			if batched && !relay.Batched() {
				t.Skip("no recvmmsg/sendmmsg path on this platform")
			}
			if !batched {
				client.b, relay.b = nil, nil
			}
			// A lost datagram would block a Recv forever; closing the
			// fronts turns that into an error instead.
			watchdog := time.AfterFunc(time.Minute, func() {
				client.Close()
				relay.Close()
			})
			defer watchdog.Stop()

			out, in := newBatch(batch), newBatch(batch)
			for i := range out {
				out[i].Buf = out[i].Buf[:HeaderLen+24]
				out[i].Addr = Addr{AP: relay.AddrPort()}
			}
			trip := func() {
				if err := udpRoundTrip(client, relay, out, in); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				trip()
			}
			if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
				t.Fatalf("a %d-datagram round trip through two UDPFronts (%s) allocates %v, want 0", batch, name, allocs)
			}
		})
	}
}
