package simnet

import (
	"testing"
	"time"

	"retrolock/internal/vclock"
)

var epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// poll spins in virtual time until the endpoint yields a datagram or the
// deadline passes.
func poll(v *vclock.Virtual, ep *Endpoint, deadline time.Duration) (Datagram, bool) {
	limit := v.Now().Add(deadline)
	for {
		if d, ok := ep.TryRecv(); ok {
			return d, true
		}
		if v.Now().After(limit) {
			return Datagram{}, false
		}
		v.Sleep(100 * time.Microsecond)
	}
}

func TestDeliveryWithConstantDelay(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	n.SetLink("a", "b", ConstantDelay(30*time.Millisecond))
	n.SetLink("b", "a", ConstantDelay(30*time.Millisecond))

	done := v.Go(func() {
		if err := a.SendTo("b", []byte("hello")); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		v.Sleep(29 * time.Millisecond)
		if _, ok := b.TryRecv(); ok {
			t.Error("packet arrived before the link delay elapsed")
		}
		v.Sleep(2 * time.Millisecond)
		d, ok := b.TryRecv()
		if !ok {
			t.Fatal("packet not delivered after the link delay")
		}
		if string(d.Payload) != "hello" || d.From != "a" {
			t.Errorf("got %q from %q, want %q from %q", d.Payload, d.From, "hello", "a")
		}
	})
	<-done
}

func TestPayloadIsCopied(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")

	done := v.Go(func() {
		buf := []byte("original")
		if err := a.SendTo("b", buf); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		copy(buf, "CLOBBER!")
		d, ok := poll(v, b, time.Second)
		if !ok {
			t.Fatal("packet not delivered")
		}
		if string(d.Payload) != "original" {
			t.Errorf("payload = %q, want %q (send must copy)", d.Payload, "original")
		}
	})
	<-done
}

func TestSendToUnknownAddress(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	done := v.Go(func() {
		if err := a.SendTo("nowhere", []byte("x")); err != ErrNoRoute {
			t.Errorf("SendTo unknown = %v, want ErrNoRoute", err)
		}
	})
	<-done
}

func TestDoubleBindFails(t *testing.T) {
	n := New(vclock.NewVirtual(epoch))
	if _, err := n.Bind("a"); err != nil {
		t.Fatalf("first Bind: %v", err)
	}
	if _, err := n.Bind("a"); err == nil {
		t.Fatal("second Bind of same address succeeded, want error")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	b.SetQueueCap(3)

	done := v.Go(func() {
		for i := 0; i < 10; i++ {
			if err := a.SendTo("b", []byte{byte(i)}); err != nil {
				t.Errorf("SendTo: %v", err)
			}
		}
		v.Sleep(10 * time.Millisecond)
		got := 0
		for {
			if _, ok := b.TryRecv(); !ok {
				break
			}
			got++
		}
		if got != 3 {
			t.Errorf("received %d datagrams, want 3 (queue cap)", got)
		}
		// The other 7 were dropped at the full queue, not delayed.
		v.Sleep(10 * time.Millisecond)
		if _, ok := b.TryRecv(); ok {
			t.Error("a datagram past the queue cap arrived late instead of being dropped")
		}
	})
	<-done
}

func TestFIFOWithinEqualDelay(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	done := v.Go(func() {
		for i := 0; i < 20; i++ {
			if err := a.SendTo("b", []byte{byte(i)}); err != nil {
				t.Errorf("SendTo: %v", err)
			}
			v.Sleep(time.Millisecond)
		}
		v.Sleep(10 * time.Millisecond)
		for i := 0; i < 20; i++ {
			d, ok := b.TryRecv()
			if !ok {
				t.Fatalf("missing datagram %d", i)
			}
			if int(d.Payload[0]) != i {
				t.Fatalf("datagram %d carried %d; reordered despite equal delay", i, d.Payload[0])
			}
		}
	})
	<-done
}

func TestCloseUnbindsAndDropsInFlight(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	n.SetLink("a", "b", ConstantDelay(20*time.Millisecond))

	done := v.Go(func() {
		if err := a.SendTo("b", []byte("in-flight")); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		v.Sleep(50 * time.Millisecond)
		if _, ok := b.TryRecv(); ok {
			t.Error("received a packet that arrived after Close")
		}
		if err := a.SendTo("b", []byte("post-close")); err != ErrNoRoute {
			t.Errorf("SendTo after peer Close = %v, want ErrNoRoute", err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
		// Address becomes reusable, and the sender's next datagram reaches
		// the new endpoint.
		b2, err := n.Bind("b")
		if err != nil {
			t.Fatalf("rebinding closed address: %v", err)
		}
		if err := a.SendTo("b", []byte("rebound")); err != nil {
			t.Fatalf("SendTo the rebound address: %v", err)
		}
		if d, ok := poll(v, b2, time.Second); !ok || string(d.Payload) != "rebound" {
			t.Errorf("rebound endpoint got %q, %v; want %q", d.Payload, ok, "rebound")
		}
	})
	<-done
}

func TestSendOnClosedEndpoint(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	n.MustBind("b")
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done := v.Go(func() {
		if err := a.SendTo("b", []byte("x")); err != ErrClosed {
			t.Errorf("SendTo on closed = %v, want ErrClosed", err)
		}
	})
	<-done
}

// dropAll is a Shaper that loses every packet.
type dropAll struct{}

func (dropAll) Plan(time.Time, int) []time.Duration { return nil }

// dupShaper duplicates every packet with two distinct delays.
type dupShaper struct{}

func (dupShaper) Plan(time.Time, int) []time.Duration {
	return []time.Duration{time.Millisecond, 2 * time.Millisecond}
}

func TestShaperDropAndDuplicate(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")

	n.SetLink("a", "b", dropAll{})
	done := v.Go(func() {
		if err := a.SendTo("b", []byte("gone")); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		v.Sleep(20 * time.Millisecond)
		if _, ok := b.TryRecv(); ok {
			t.Error("dropAll shaper delivered a packet")
		}

		n.SetLink("a", "b", dupShaper{})
		if err := a.SendTo("b", []byte("twice")); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		v.Sleep(20 * time.Millisecond)
		count := 0
		for {
			if _, ok := b.TryRecv(); !ok {
				break
			}
			count++
		}
		if count != 2 {
			t.Errorf("received %d copies, want 2", count)
		}
	})
	<-done
}

func TestMinDelayEnforced(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	n.SetLink("a", "b", ConstantDelay(0)) // asks for instant delivery

	done := v.Go(func() {
		if err := a.SendTo("b", []byte("x")); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		if _, ok := b.TryRecv(); ok {
			t.Error("packet visible at the send instant; MinDelay not enforced")
		}
		v.Sleep(MinDelay)
		if _, ok := b.TryRecv(); !ok {
			t.Error("packet not delivered after MinDelay")
		}
	})
	<-done
}

// TestStatsCounters: on a clean link, every datagram sent is delivered.
func TestStatsCounters(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	done := v.Go(func() {
		for i := 0; i < 5; i++ {
			if err := a.SendTo("b", []byte{1}); err != nil {
				t.Errorf("SendTo: %v", err)
			}
		}
		v.Sleep(time.Millisecond)
		delivered := 0
		for {
			if _, ok := b.TryRecv(); !ok {
				break
			}
			delivered++
		}
		if delivered != 5 {
			t.Errorf("sent=5 delivered=%d, want 5/5", delivered)
		}
	})
	<-done
}

// dupCorruptShaper duplicates every packet and corrupts exactly the second
// copy, to probe the per-copy corruption path.
type dupCorruptShaper struct{ calls int }

func (s *dupCorruptShaper) Plan(time.Time, int) []time.Duration {
	return []time.Duration{time.Millisecond, 2 * time.Millisecond}
}

func (s *dupCorruptShaper) Corrupt(p []byte) ([]byte, bool) {
	s.calls++
	if s.calls%2 == 0 {
		cp := append([]byte(nil), p...)
		cp[0] ^= 0x01
		return cp, true
	}
	return p, false
}

func TestCorrupterAppliedPerDeliveredCopy(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	n.SetLink("a", "b", &dupCorruptShaper{})

	payload := []byte("hello")
	done := v.Go(func() {
		if err := a.SendTo("b", payload); err != nil {
			t.Errorf("SendTo: %v", err)
		}
		v.Sleep(10 * time.Millisecond)
		first, ok := b.TryRecv()
		if !ok || string(first.Payload) != "hello" {
			t.Fatalf("first copy = %q/%v, want intact hello", first.Payload, ok)
		}
		second, ok := b.TryRecv()
		if !ok {
			t.Fatal("second copy missing")
		}
		want := append([]byte(nil), []byte("hello")...)
		want[0] ^= 0x01
		if string(second.Payload) != string(want) {
			t.Fatalf("second copy = %q, want single-bit-flipped %q", second.Payload, want)
		}
	})
	<-done
	if string(payload) != "hello" {
		t.Errorf("sender's buffer mutated to %q; corruption must act on copies", payload)
	}
}

// The arrival hook runs inside the delivery event, once per queued datagram
// and never for one the full queue drops, after the endpoint's lock is
// released (it may call Pending); only the network's own scheduler may set
// it.
func TestOnArrivalRunsInDeliveryEvent(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	b.SetQueueCap(1)
	n.SetLink("a", "b", ConstantDelay(30*time.Millisecond))
	if b.OnArrival(vclock.NewVirtual(epoch), func() {}) {
		t.Fatal("OnArrival accepted a scheduler the network does not deliver on")
	}
	var rang []time.Duration
	if !b.OnArrival(v, func() { rang = append(rang, v.Elapsed()) }) {
		t.Fatal("OnArrival refused the network's scheduler")
	}
	<-v.Go(func() {
		_ = a.SendTo("b", []byte("1"))
		_ = a.SendTo("b", []byte("2")) // dropped: the queue holds one
		v.Sleep(40 * time.Millisecond)
	})
	if len(rang) != 1 || rang[0] != 30*time.Millisecond {
		t.Fatalf("hook ran at %v, want once at 30ms", rang)
	}
}

// The payload TryRecv returned last stays intact until the next TryRecv,
// however many deliveries land in between: even when the queue holds all
// but one slot of the ring, a delivery does not reuse the slot just popped.
func TestBorrowedPayloadSurvivesDeliveries(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")
	<-v.Go(func() {
		for i := 0; i < 16; i++ {
			_ = a.SendTo("b", []byte{'x', byte(i)})
		}
		v.Sleep(time.Millisecond)
		d, ok := b.TryRecv()
		if !ok {
			t.Fatal("nothing queued")
		}
		for i := 0; i < 40; i++ {
			_ = a.SendTo("b", []byte{'y', byte(i)})
			v.Sleep(time.Millisecond)
			if string(d.Payload) != "x\x00" {
				t.Fatalf("borrowed payload became %q after %d more deliveries", d.Payload, i+1)
			}
		}
	})
}

// A sender caches each destination's resolved hop; a SetLink after the
// first send must still shape the next one.
func TestSetLinkAfterFirstSendReshapes(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := New(v)
	a := n.MustBind("a")
	b := n.MustBind("b")

	<-v.Go(func() {
		arrival := func(payload string) time.Duration {
			t.Helper()
			sent := v.Now()
			if err := a.SendTo("b", []byte(payload)); err != nil {
				t.Fatalf("SendTo: %v", err)
			}
			d, ok := poll(v, b, time.Second)
			if !ok || string(d.Payload) != payload {
				t.Fatalf("%q not delivered (got %q, %v)", payload, d.Payload, ok)
			}
			return d.At.Sub(sent)
		}
		if got := arrival("default"); got != MinDelay {
			t.Errorf("default link delivered after %v, want %v", got, MinDelay)
		}
		n.SetLink("a", "b", ConstantDelay(30*time.Millisecond))
		if got := arrival("shaped"); got != 30*time.Millisecond {
			t.Errorf("after SetLink delivered after %v, want 30ms", got)
		}
		n.SetLink("a", "b", dropAll{})
		if err := a.SendTo("b", []byte("dropped")); err != nil {
			t.Fatalf("SendTo: %v", err)
		}
		n.SetLink("a", "b", nil)
		if got := arrival("restored"); got != MinDelay {
			t.Errorf("after SetLink(nil) delivered after %v, want %v", got, MinDelay)
		}
	})
}
