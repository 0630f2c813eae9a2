package chaos_test

import (
	"encoding/binary"
	"testing"
	"time"

	"retrolock/internal/chaos"
	"retrolock/internal/netem"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// TestARQUnderChaosSchedule drives a raw ARQ link (no sync stack on top)
// through the chaos scheduler — a Gilbert-Elliott burst-loss storm, a
// duplicate/reorder storm, a one-second full partition, and a heal — and
// asserts the transport contract directly:
//
//   - every datagram is delivered exactly once, in order
//   - recovery happened via retransmission (count > 0) but stayed sane
//   - the receive horizon never dropped traffic from this correct peer
//   - the first in-order delivery after the heal arrives within the worst
//     case one capped backoff allows (8×RTO after the partition), not after
//     an unbounded stall
//   - the sender window and out-of-order buffer stay bounded at every
//     phase boundary, and the sender drains to zero unacked segments
//
// Everything runs in virtual time from a fixed seed, so the run is
// bit-reproducible.
func TestARQUnderChaosSchedule(t *testing.T) {
	const (
		seed  = 42
		count = 2000
		rto   = 100 * time.Millisecond
	)
	v := vclock.NewVirtual(chaos.Epoch)
	n := simnet.New(v)
	rawA, rawB, err := transport.SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	arqA := transport.NewARQ(rawA, v, rto)
	arqB := transport.NewARQ(rawB, v, rto)

	phases := []chaos.Phase{
		{Name: "burst-storm", Duration: 2 * time.Second,
			AB: &netem.Config{Delay: 10 * time.Millisecond, Jitter: 3 * time.Millisecond,
				Loss: 0.3, BurstLoss: true, MeanBurst: 16},
			BA: &netem.Config{Delay: 10 * time.Millisecond, Jitter: 3 * time.Millisecond,
				Loss: 0.3, BurstLoss: true, MeanBurst: 16}},
		{Name: "dup-reorder", Duration: 2 * time.Second,
			AB: &netem.Config{Delay: 10 * time.Millisecond, Jitter: 3 * time.Millisecond,
				Duplicate: 0.4, Reorder: 0.3},
			BA: &netem.Config{Delay: 10 * time.Millisecond, Jitter: 3 * time.Millisecond,
				Duplicate: 0.4, Reorder: 0.3}},
		{Name: "full-partition", Duration: time.Second,
			PartitionAB: true, PartitionBA: true},
		{Name: "heal",
			AB: &netem.Config{Delay: 10 * time.Millisecond},
			BA: &netem.Config{Delay: 10 * time.Millisecond}},
	}

	var healStart time.Time
	onEnter := func(i int, _, _ *netem.Emulator) {
		// Phase boundaries are where backlogs peak; the buffers must be
		// bounded there no matter what the previous phase did.
		for _, c := range []*transport.ARQConn{arqA, arqB} {
			st := c.Stats()
			if st.Unacked > transport.DefaultSenderWindow {
				t.Errorf("entering %q: unacked %d exceeds window %d",
					phases[i].Name, st.Unacked, transport.DefaultSenderWindow)
			}
			if st.OOO >= transport.DefaultSenderWindow {
				t.Errorf("entering %q: ooo buffer %d reached the horizon %d",
					phases[i].Name, st.OOO, transport.DefaultSenderWindow)
			}
		}
		if phases[i].Name == "heal" {
			healStart = v.Now()
		}
	}
	chaos.InstallPhases(v, n, "a", "b", seed, phases, onEnter)

	var firstAfterHeal time.Time
	done := v.Go(func() {
		sent, got := 0, 0
		deadline := v.Now().Add(60 * time.Second)
		for got < count && v.Now().Before(deadline) {
			if sent < count {
				var p [4]byte
				binary.BigEndian.PutUint32(p[:], uint32(sent))
				// A full window during the partition is backpressure,
				// not failure: retry the same datagram next tick.
				if err := arqA.Send(p[:]); err == nil {
					sent++
				}
			}
			for {
				p, ok := arqB.TryRecv()
				if !ok {
					break
				}
				if len(p) != 4 || binary.BigEndian.Uint32(p) != uint32(got) {
					t.Fatalf("datagram %d: got %v, want index %d (dup, loss or reorder leaked through)",
						got, p, got)
				}
				got++
				if !healStart.IsZero() && firstAfterHeal.IsZero() {
					firstAfterHeal = v.Now()
				}
			}
			arqA.TryRecv() // drives acks and retransmission; nothing is ready
			v.Sleep(2 * time.Millisecond)
		}
		if got != count {
			t.Fatalf("delivered %d/%d datagrams", got, count)
		}
		// The stream is complete; nothing further may ever be delivered,
		// and the sender must drain to zero once the last acks land.
		quiet := v.Now().Add(time.Second)
		for v.Now().Before(quiet) {
			if p, ok := arqB.TryRecv(); ok {
				t.Fatalf("extra datagram %v after the full stream was delivered", p)
			}
			arqA.TryRecv() // drives acks and retransmission; nothing is ready
			v.Sleep(5 * time.Millisecond)
		}
	})
	<-done
	if t.Failed() {
		return
	}

	if arqA.Retransmissions() == 0 {
		t.Error("no retransmissions despite burst loss and a partition")
	}
	// Sanity ceiling: every datagram retransmitted ~10 times would mean the
	// ack path is broken even though delivery eventually happened.
	if r := arqA.Retransmissions(); r > 10*count {
		t.Errorf("retransmission count %d is absurd for %d datagrams", r, count)
	}
	for name, c := range map[string]*transport.ARQConn{"a": arqA, "b": arqB} {
		if fd := c.Stats().FarDropped; fd != 0 {
			t.Errorf("site %s dropped %d far-future segments from a correct peer", name, fd)
		}
	}
	if arqA.Unacked() != 0 {
		t.Errorf("sender finished with %d unacked segments; ack path failed to drain", arqA.Unacked())
	}
	if healStart.IsZero() || firstAfterHeal.IsZero() {
		t.Fatal("run ended before the heal phase delivered anything")
	}
	// After the heal the oldest lost segment's timer has backed off to at
	// most 8×RTO, so recovery is bounded by one capped interval plus the
	// link delay. 1.2 s gives ~50% headroom over that worst case.
	if lat := firstAfterHeal.Sub(healStart); lat > 1200*time.Millisecond {
		t.Errorf("first post-heal delivery took %v; want <= 1.2s (8×RTO + delay)", lat)
	}
}
