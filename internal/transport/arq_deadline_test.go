package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"retrolock/internal/vclock"
)

// scanSeg and scanARQ are the reference model of the ARQ sender's timers:
// each unacked segment keeps when it was last sent and its current timeout,
// and every poll scans the whole window for the segments whose timeout has
// run out. ARQConn keeps each segment's deadline and the earliest of them
// instead; TestARQDeadlineMatchesScan checks the two never disagree.
type scanSeg struct {
	seq      uint32
	payload  []byte
	lastSent time.Time
	rto      time.Duration
}

type scanARQ struct {
	rto     time.Duration
	nextSeq uint32
	unacked []scanSeg
	retrans int
}

func (m *scanARQ) send(now time.Time, p []byte) {
	m.unacked = append(m.unacked, scanSeg{seq: m.nextSeq, payload: p, lastSent: now, rto: m.rto})
	m.nextSeq++
}

func (m *scanARQ) ack(next uint32) {
	keep := m.unacked[:0]
	for _, seg := range m.unacked {
		if !seqBefore(seg.seq, next) {
			keep = append(keep, seg)
		}
	}
	m.unacked = keep
}

// poll returns the sequences retransmitted at now, in the order sent.
func (m *scanARQ) poll(now time.Time) []uint32 {
	var out []uint32
	for i := range m.unacked {
		seg := &m.unacked[i]
		if now.Sub(seg.lastSent) >= seg.rto {
			seg.lastSent = now
			if seg.rto < 8*m.rto {
				seg.rto *= 2
			}
			m.retrans++
			out = append(out, seg.seq)
		}
	}
	return out
}

func (m *scanARQ) nextTimer() (time.Time, bool) {
	var at time.Time
	ok := false
	for _, seg := range m.unacked {
		if due := seg.lastSent.Add(seg.rto); !ok || due.Before(at) {
			at, ok = due, true
		}
	}
	return at, ok
}

// TestARQDeadlineMatchesScan runs seeded scripts of sends, clock advances,
// cumulative acks (stale and duplicate ones too), data segments and TryRecv
// against ARQConn and the scan model side by side. After every step
// the next timer, the retransmission count and the sequences retransmitted
// (with their bytes) must agree.
func TestARQDeadlineMatchesScan(t *testing.T) {
	const rto = 20 * time.Millisecond
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			v := vclock.NewVirtual(epoch)
			lower := &reuseConn{}
			arq := NewARQ(lower, v, rto)
			model := &scanARQ{rto: rto}
			var acks []uint32 // queued at the lower conn, not yet ingested
			var lastAck, peerSeq uint32

			// sentData returns the data sequences the ARQ transmitted since
			// the last call, and an error for one whose bytes are not those
			// of the model's unacked segment.
			sentData := func() ([]uint32, error) {
				var seqs []uint32
				for _, raw := range lower.sent {
					if raw[0] != arqData {
						continue
					}
					seq := binary.BigEndian.Uint32(raw[1:5])
					seqs = append(seqs, seq)
					i := slices.IndexFunc(model.unacked, func(s scanSeg) bool { return s.seq == seq })
					if i < 0 || !bytes.Equal(raw[arqHeaderLen:], model.unacked[i].payload) {
						return nil, fmt.Errorf("transmitted seq %d with payload %q, not an unacked segment", seq, raw[arqHeaderLen:])
					}
				}
				lower.sent = lower.sent[:0]
				return seqs, nil
			}
			pump := func(now time.Time) []uint32 {
				for _, a := range acks {
					model.ack(a)
				}
				acks = acks[:0]
				return model.poll(now)
			}

			// run returns the first disagreement. It runs as an actor, so
			// it reports instead of calling t.Fatal.
			run := func() error {
				for step := 0; step < 400; step++ {
					var want []uint32
					op := rng.Intn(8)
					switch op {
					case 0, 1: // Send
						p := []byte(fmt.Sprintf("seg%d-%d", model.nextSeq, rng.Intn(1000)))
						if err := arq.Send(p); err != nil {
							return err
						}
						want = []uint32{model.nextSeq}
						model.send(v.Now(), p)
					case 2: // advance: up to a few timeouts, or to just before or at the next deadline
						d := time.Duration(rng.Int63n(int64(3 * rto)))
						if at, ok := model.nextTimer(); ok && rng.Intn(2) == 0 {
							d = at.Sub(v.Now()) - time.Duration(rng.Intn(2))
						}
						if d > 0 {
							v.Sleep(d)
						}
					case 3: // a cumulative ack: new, duplicate or stale
						a := lastAck
						switch rng.Intn(3) {
						case 0:
							if n := model.nextSeq - lastAck; n > 0 {
								a = lastAck + 1 + uint32(rng.Intn(int(n)))
							}
						case 1:
							if lastAck > 0 {
								a = uint32(rng.Intn(int(lastAck)))
							}
						}
						if seqBefore(lastAck, a) {
							lastAck = a
						}
						acks = append(acks, a)
						lower.push(ackSegment(a))
					case 4: // a data segment from the peer, which the ARQ acks
						lower.push(dataSegment(peerSeq, "in"))
						peerSeq++
					case 5, 6, 7:
						arq.TryRecv()
						want = pump(v.Now())
					}
					got, err := sentData()
					if err != nil {
						return fmt.Errorf("step %d (op %d): %w", step, op, err)
					}
					if !slices.Equal(got, want) {
						return fmt.Errorf("step %d (op %d) at %v: sent data %v, scan sends %v", step, op, v.Elapsed(), got, want)
					}
					gotAt, gotOK := arq.NextTimer()
					wantAt, wantOK := model.nextTimer()
					if gotOK != wantOK || !gotAt.Equal(wantAt) {
						return fmt.Errorf("step %d (op %d) at %v: NextTimer = %v/%v, scan says %v/%v",
							step, op, v.Elapsed(), gotAt.Sub(epoch), gotOK, wantAt.Sub(epoch), wantOK)
					}
					if got := arq.Retransmissions(); got != model.retrans {
						return fmt.Errorf("step %d (op %d): Retransmissions = %d, scan counts %d", step, op, got, model.retrans)
					}
				}
				return nil
			}
			var err error
			<-v.Go(func() { err = run() })
			if err != nil {
				t.Fatal(err)
			}
			if model.retrans == 0 {
				t.Error("script never retransmitted")
			}
		})
	}
}
