package transport

import (
	"bytes"
	"testing"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

var epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// recvWithin polls c in virtual time until a datagram arrives or d elapses.
func recvWithin(v *vclock.Virtual, c Conn, d time.Duration) ([]byte, bool) {
	deadline := v.Now().Add(d)
	for {
		if p, ok := c.TryRecv(); ok {
			return p, true
		}
		if v.Now().After(deadline) {
			return nil, false
		}
		v.Sleep(200 * time.Microsecond)
	}
}

func TestSimConnRoundTrip(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	a, b, err := SimPair(n, "siteA", "siteB")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	done := v.Go(func() {
		if err := a.Send([]byte("ping")); err != nil {
			t.Errorf("Send: %v", err)
		}
		p, ok := recvWithin(v, b, time.Second)
		if !ok || string(p) != "ping" {
			t.Fatalf("recv = %q/%v, want ping", p, ok)
		}
		if err := b.Send([]byte("pong")); err != nil {
			t.Errorf("Send: %v", err)
		}
		p, ok = recvWithin(v, a, time.Second)
		if !ok || string(p) != "pong" {
			t.Fatalf("recv = %q/%v, want pong", p, ok)
		}
	})
	<-done
}

func TestSimConnFiltersForeignTraffic(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	a, b, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	intruder := n.MustBind("x")
	done := v.Go(func() {
		if err := intruder.SendTo("b", []byte("spoof")); err != nil {
			t.Errorf("intruder send: %v", err)
		}
		if err := a.Send([]byte("legit")); err != nil {
			t.Errorf("Send: %v", err)
		}
		p, ok := recvWithin(v, b, time.Second)
		if !ok || string(p) != "legit" {
			t.Fatalf("recv = %q/%v, want legit (foreign datagram must be dropped)", p, ok)
		}
	})
	<-done
}

func TestSimConnAddrsAndClose(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	a, b, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	if a.LocalAddr() != "a" || a.RemoteAddr() != "b" {
		t.Errorf("addrs = %s/%s, want a/b", a.LocalAddr(), a.RemoteAddr())
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Errorf("Send on closed = %v, want ErrClosed", err)
	}
	// Sending toward a vanished peer behaves like UDP: silent success.
	done := v.Go(func() {
		if err := b.Send([]byte("void")); err != nil {
			t.Errorf("Send to closed peer = %v, want nil", err)
		}
	})
	<-done
}

func TestARQDeliversInOrderDespiteLossAndReorder(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	rawA, rawB, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	fwd := netem.Config{Delay: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.15, Seed: 99}
	rev := fwd
	rev.Seed = 100
	netem.Install(n, "a", "b", fwd, rev)

	arqA := NewARQ(rawA, v, 100*time.Millisecond)
	arqB := NewARQ(rawB, v, 100*time.Millisecond)

	const count = 200
	done := v.Go(func() {
		got := 0
		sent := 0
		deadline := v.Now().Add(2 * time.Minute)
		for got < count && v.Now().Before(deadline) {
			if sent < count {
				if err := arqA.Send([]byte{byte(sent), byte(sent >> 8)}); err != nil {
					t.Errorf("Send %d: %v", sent, err)
				}
				sent++
			}
			for {
				p, ok := arqB.TryRecv()
				if !ok {
					break
				}
				want := []byte{byte(got), byte(got >> 8)}
				if !bytes.Equal(p, want) {
					t.Fatalf("datagram %d = %v, want %v (order violated)", got, p, want)
				}
				got++
			}
			arqA.TryRecv() // drives acks and retransmission; nothing is ready
			v.Sleep(2 * time.Millisecond)
		}
		if got != count {
			t.Fatalf("delivered %d/%d datagrams before deadline", got, count)
		}
	})
	<-done
	if arqA.Retransmissions() == 0 {
		t.Error("no retransmissions despite 15%% loss; reliability untested")
	}
}

func TestARQHeadOfLineBlocking(t *testing.T) {
	// Drop exactly the first data packet; the second must not be
	// delivered before the first's retransmission arrives.
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	rawA, rawB, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	drop := &dropFirstShaper{delay: 10 * time.Millisecond}
	n.SetLink("a", "b", drop)
	n.SetLink("b", "a", simnet.ConstantDelay(10*time.Millisecond))

	const rto = 100 * time.Millisecond
	arqA := NewARQ(rawA, v, rto)
	arqB := NewARQ(rawB, v, rto)

	done := v.Go(func() {
		start := v.Now()
		if err := arqA.Send([]byte("first")); err != nil {
			t.Errorf("Send: %v", err)
		}
		if err := arqA.Send([]byte("second")); err != nil {
			t.Errorf("Send: %v", err)
		}
		var first time.Duration
		for {
			if p, ok := arqB.TryRecv(); ok {
				if string(p) != "first" {
					t.Fatalf("got %q before %q: order violated", p, "first")
				}
				first = v.Now().Sub(start)
				break
			}
			arqA.TryRecv() // drives acks and retransmission; nothing is ready
			v.Sleep(time.Millisecond)
		}
		if first < rto {
			t.Errorf("first datagram after %v, want >= RTO %v (HoL stall)", first, rto)
		}
		if _, ok := arqB.TryRecv(); !ok {
			t.Error("second datagram not ready right after the stalled first")
		}
	})
	<-done
}

// dropFirstShaper drops only the first packet it sees.
type dropFirstShaper struct {
	delay   time.Duration
	dropped bool
}

func (s *dropFirstShaper) Plan(time.Time, int) []time.Duration {
	if !s.dropped {
		s.dropped = true
		return nil
	}
	return []time.Duration{s.delay}
}

func TestARQDuplicateSuppression(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	rawA, rawB, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	// Duplicate every packet.
	dup := netem.New(netem.Config{Delay: 5 * time.Millisecond, Duplicate: 1.0, Seed: 7})
	n.SetLink("a", "b", dup)
	n.SetLink("b", "a", dup)

	arqA := NewARQ(rawA, v, 50*time.Millisecond)
	arqB := NewARQ(rawB, v, 50*time.Millisecond)
	done := v.Go(func() {
		for i := 0; i < 10; i++ {
			if err := arqA.Send([]byte{byte(i)}); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		v.Sleep(100 * time.Millisecond)
		var got []byte
		for {
			p, ok := arqB.TryRecv()
			if !ok {
				break
			}
			got = append(got, p[0])
		}
		if len(got) != 10 {
			t.Fatalf("delivered %d datagrams, want exactly 10 (dups suppressed)", len(got))
		}
		for i, b := range got {
			if int(b) != i {
				t.Fatalf("position %d = %d, want %d", i, b, i)
			}
		}
	})
	<-done
}

func TestARQSenderWindowBackpressure(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	rawA, _, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	// Peer never acks (we never pump it).
	arq := NewARQ(rawA, v, time.Hour)
	arq.maxAhead = 4
	done := v.Go(func() {
		for i := 0; i < 4; i++ {
			if err := arq.Send([]byte{1}); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		if err := arq.Send([]byte{1}); err == nil {
			t.Error("Send beyond window succeeded, want backpressure error")
		}
	})
	<-done
}

func TestUDPConnLoopback(t *testing.T) {
	// Bind a throwaway socket to learn a free port, then wire two
	// connected sockets at each other (the port may not be reused by
	// another process between Close and re-bind on loopback in practice).
	probe, err := DialUDP("127.0.0.1:0", "127.0.0.1:1")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	firstAddr := probe.LocalAddr()
	probe.Close()

	second, err := DialUDP("127.0.0.1:0", firstAddr)
	if err != nil {
		t.Fatalf("bind second: %v", err)
	}
	defer second.Close()
	first, err := DialUDP(firstAddr, second.LocalAddr())
	if err != nil {
		t.Fatalf("bind first: %v", err)
	}
	defer first.Close()

	if err := first.Send([]byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p, ok := second.TryRecv(); ok {
			if string(p) != "hello" {
				t.Fatalf("recv %q, want hello", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram not received over loopback")
		}
		time.Sleep(time.Millisecond)
	}
	if err := second.Send([]byte("yo")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	for {
		if p, ok := first.TryRecv(); ok {
			if string(p) != "yo" {
				t.Fatalf("recv %q, want yo", p)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("reply not received over loopback")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWrappersReportAndCloseTheirInnerConn: each layer of a conn stack
// (checksum, capture tap, ARQ) names its inner conn's two ends, and its
// Close closes the inner conn, so that closing the top of a stack releases
// the socket at the bottom.
func TestWrappersReportAndCloseTheirInnerConn(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	for name, wrap := range map[string]func(Conn) Conn{
		"checksum": func(c Conn) Conn { return NewChecksum(c) },
		"tap":      func(c Conn) Conn { return NewTap(c, v, 0, nil) },
		"arq":      func(c Conn) Conn { return NewARQ(c, v, DefaultRTO) },
	} {
		a, _, err := SimPair(simnet.New(v), "a", "b")
		if err != nil {
			t.Fatal(err)
		}
		w := wrap(a)
		if w.LocalAddr() != "a" || w.RemoteAddr() != "b" {
			t.Errorf("%s: addrs %s/%s, want a/b", name, w.LocalAddr(), w.RemoteAddr())
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if err := a.Send([]byte("x")); err != ErrClosed {
			t.Errorf("%s: the inner conn's Send after Close = %v, want ErrClosed", name, err)
		}
	}
}

// A Notifier stack rings on every datagram its bottom conn queues, inside
// the delivery event, and reports the earliest ARQ retransmission as its
// timer. Any layer that cannot answer — a conn that is not a Notifier, a
// delivery or timer on another clock — makes the whole stack refuse.
func TestNotifierStack(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	n.SetLink("a", "b", simnet.ConstantDelay(10*time.Millisecond))
	n.SetLink("b", "a", simnet.ConstantDelay(10*time.Millisecond))
	rawA, rawB, err := SimPair(n, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	const rto = 100 * time.Millisecond
	sender := NewARQ(NewChecksum(rawA), v, rto)
	stack := NewARQ(NewTap(NewChecksum(rawB), v, 1, nil), v, rto)

	other := vclock.NewVirtual(epoch)
	if stack.NotifyArrival(other, func() {}) {
		t.Error("a stack delivering on one clock agreed to ring for another")
	}
	if NewARQ(rawB, vclock.System, rto).NotifyArrival(v, func() {}) {
		t.Error("an ARQ timing retransmissions on the host clock agreed to ring")
	}
	if NewTap(struct{ Conn }{rawB}, v, 1, nil).NotifyArrival(v, func() {}) {
		t.Error("a tap over a conn that is not a Notifier agreed to ring")
	}
	var rang []time.Duration
	if !stack.NotifyArrival(v, func() { rang = append(rang, v.Elapsed()) }) {
		t.Fatal("an all-simulated stack refused to ring")
	}
	for _, c := range []Notifier{rawB, stack} {
		if at, ok := c.NextTimer(); ok {
			t.Errorf("%T has a timer at %v with nothing in flight", c, at)
		}
	}
	<-v.Go(func() {
		v.Sleep(5 * time.Millisecond)
		if err := sender.Send([]byte("x")); err != nil {
			t.Error(err)
		}
		if at, ok := sender.NextTimer(); !ok || at.Sub(epoch) != 5*time.Millisecond+rto {
			t.Errorf("sender's timer at %v/%v, want %v", at.Sub(epoch), ok, 5*time.Millisecond+rto)
		}
		if p, ok := recvWithin(v, stack, time.Second); !ok || string(p) != "x" {
			t.Errorf("received %q/%v, want x", p, ok)
		}
	})
	if len(rang) != 1 || rang[0] != 15*time.Millisecond {
		t.Errorf("rang at %v, want once at the 15ms delivery", rang)
	}
}
