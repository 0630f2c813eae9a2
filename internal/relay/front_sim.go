package relay

import "retrolock/internal/simnet"

// SimFront adapts a simnet endpoint to the Front interface so the exact
// shard loops that serve real UDP run under the virtual clock. Recv never
// blocks (simnet is poll-based); the daemon's poll loop (StartVirtual)
// sleeps on the virtual clock between polls.
type SimFront struct {
	ep *simnet.Endpoint
}

// NewSimFront wraps a bound simnet endpoint.
func NewSimFront(ep *simnet.Endpoint) *SimFront { return &SimFront{ep: ep} }

// Recv implements Front. Payloads are copied out of the endpoint's receive
// ring into the callers' pooled buffers (TryRecv's borrow window ends at the
// next delivery, which under a virtual clock can happen as soon as the actor
// parks).
func (f *SimFront) Recv(ms []Message) (int, error) {
	n := 0
	for n < len(ms) {
		d, ok := f.ep.TryRecv()
		if !ok {
			break
		}
		if len(d.Payload) > MaxDatagram {
			continue // oversized: drop, like a real socket with a small buffer
		}
		ms[n].Buf = append(ms[n].Buf[:0], d.Payload...)
		ms[n].Addr = Addr{Sim: d.From}
		n++
	}
	return n, nil
}

// Send implements Front.
func (f *SimFront) Send(ms []Message) (int, error) {
	sent := 0
	for i := range ms {
		if ms[i].Addr.Sim == "" {
			continue
		}
		// ErrNoRoute (peer endpoint gone) is a lost datagram, like UDP to a
		// dead host; only a closed local endpoint stops the batch.
		if err := f.ep.SendTo(ms[i].Addr.Sim, ms[i].Buf); err == simnet.ErrClosed {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

// LocalAddr implements Front.
func (f *SimFront) LocalAddr() string { return f.ep.Addr() }

// Close implements Front.
func (f *SimFront) Close() error { return f.ep.Close() }

var _ Front = (*SimFront)(nil)
