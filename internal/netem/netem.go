// Package netem emulates wide-area network conditions, standing in for the
// Linux Netem box of the paper's testbed (§4).
//
// An Emulator shapes one direction of a link. It supports the same knobs the
// paper's experiments turn — base one-way delay, jitter, random loss,
// duplication, reordering — plus two the paper's §4.2 analysis accounts for
// implicitly: a bounded uniform processing delay (the 10 ms sender-thread
// scheduling quantum, ~5 ms average).
// For the chaos harness it additionally models in-flight bit corruption
// (the simnet.Corrupter extension).
//
// All randomness comes from a seeded PRNG, so a virtual-time experiment with
// a fixed seed reproduces bit-identical results.
package netem

import (
	"encoding/json"
	"math/rand"
	"sync"
	"time"

	"retrolock/internal/simnet"
)

// Config describes one direction of an emulated link.
type Config struct {
	// Delay is the base one-way propagation delay. The paper sweeps the
	// round-trip time, i.e. Delay = RTT/2 per direction.
	Delay time.Duration

	// Jitter spreads each packet's delay uniformly over
	// [Delay-Jitter, Delay+Jitter], like `netem delay D J`.
	Jitter time.Duration

	// ProcDelay adds a uniform [0, ProcDelay) delay per packet, modelling
	// the endpoint's sender-thread scheduling quantum (§4.2 assumes 10 ms,
	// i.e. a 5 ms average submit-to-wire delay).
	ProcDelay time.Duration

	// Loss is the independent per-packet drop probability in [0,1].
	Loss float64

	// BurstLoss switches the loss process from independent (Bernoulli) to
	// a two-state Gilbert-Elliott chain with the same long-run loss rate
	// but clustered drops: once in the bad state, every packet drops until
	// the chain recovers. Real Internet loss is bursty, which stresses
	// range retransmission much harder than independent loss of the same
	// rate.
	BurstLoss bool
	// MeanBurst is the expected bad-state dwell time in packets (default
	// 4). Larger values concentrate the same loss rate into longer
	// outages.
	MeanBurst float64

	// Duplicate is the probability that a packet is delivered twice; the
	// copy gets an independently jittered delay.
	Duplicate float64

	// Reorder is the probability that a packet is held back by an extra
	// 4*Jitter (10 ms on a jitter-free link), overtaking later traffic.
	// Jitter alone also reorders; this knob forces it even on jitter-free
	// links.
	Reorder float64

	// Corrupt is the per-delivered-copy probability that a single random
	// bit of the payload is flipped in flight (like `netem corrupt`).
	// Each copy of a duplicated packet is corrupted independently. The
	// chaos harness uses it to model link-level bit errors; endpoints
	// that want UDP's checksum behaviour layer transport.NewChecksum
	// over their connections so corrupted datagrams are discarded.
	Corrupt float64

	// Seed initializes the shaper's PRNG. Two directions of a link should
	// use different seeds.
	Seed int64
}

// MarshalJSON encodes c with the field set RKCP capture metadata has always
// carried (capture.Meta's Fwd and Rev): the retired BadLoss, ReorderExtra
// and Rate knobs are written as zeros, so a capture's bytes do not depend
// on which knobs the emulator still has. Decoding ignores them.
func (c Config) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Delay, Jitter, ProcDelay    time.Duration
		Loss                        float64
		BurstLoss                   bool
		MeanBurst, BadLoss          float64
		Duplicate, Reorder, Corrupt float64
		ReorderExtra                time.Duration
		Rate, Seed                  int64
	}{
		Delay: c.Delay, Jitter: c.Jitter, ProcDelay: c.ProcDelay, Loss: c.Loss,
		BurstLoss: c.BurstLoss, MeanBurst: c.MeanBurst,
		Duplicate: c.Duplicate, Reorder: c.Reorder, Corrupt: c.Corrupt, Seed: c.Seed,
	})
}

// Symmetric returns per-direction configs for a link with round-trip time
// rtt and the given jitter/loss applied to each direction independently.
// Per §4 of the paper, the one-way latency is estimated as RTT/2.
func Symmetric(rtt, jitter time.Duration, loss float64, seed int64) (fwd, rev Config) {
	base := Config{Delay: rtt / 2, Jitter: jitter, Loss: loss}
	fwd, rev = base, base
	fwd.Seed = seed
	rev.Seed = seed + 1
	return fwd, rev
}

// Emulator shapes packets for one direction of a link. It implements
// simnet.Shaper. Safe for concurrent use: simnet calls Plan only from its
// world's turns, but a real-clock sender calls it from its own goroutine.
type Emulator struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	inBurst bool

	planned    int
	dropped    int
	duplicated int
	reordered  int
	corrupted  int
}

// New creates an Emulator for cfg.
func New(cfg Config) *Emulator {
	if cfg.BurstLoss {
		if cfg.MeanBurst <= 1 {
			cfg.MeanBurst = 4
		}
	}
	return &Emulator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Reshape retunes the emulator to cfg: configuration, PRNG and burst state
// restart exactly as New(cfg) would, while the lifetime counters
// carry on, so a link reshaped mid-run still reports all of its traffic.
func (e *Emulator) Reshape(cfg Config) {
	fresh := New(cfg)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg, e.rng, e.inBurst = fresh.cfg, fresh.rng, fresh.inBurst
}

// Plan implements simnet.Shaper.
func (e *Emulator) Plan(now time.Time, size int) []time.Duration {
	return e.AppendPlan(nil, now, size)
}

// AppendPlan implements simnet.Appender: it appends the packet's delivery
// offsets (none when it is lost, two when it is duplicated) to dst.
func (e *Emulator) AppendPlan(dst []time.Duration, now time.Time, size int) []time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.planned++

	if e.dropLocked() {
		e.dropped++
		return dst
	}

	copies := 1
	if e.cfg.Duplicate > 0 && e.rng.Float64() < e.cfg.Duplicate {
		e.duplicated++
		copies = 2
	}
	for range copies {
		dst = append(dst, e.deliveryOffsetLocked())
	}
	return dst
}

// deliveryOffsetLocked plans one delivered copy of a packet: propagation +
// processing delay and the deliberate reorder knob. A duplicate travels the
// same path as its original, with its own draws.
func (e *Emulator) deliveryOffsetLocked() time.Duration {
	offset := e.oneWayLocked()
	if e.cfg.Reorder > 0 && e.rng.Float64() < e.cfg.Reorder {
		e.reordered++
		offset += e.reorderExtraLocked()
	}
	return offset
}

// dropLocked decides one packet's fate under the configured loss process.
func (e *Emulator) dropLocked() bool {
	if e.cfg.Loss <= 0 {
		return false
	}
	if !e.cfg.BurstLoss {
		return e.rng.Float64() < e.cfg.Loss
	}
	// Gilbert-Elliott: choose transition probabilities so the stationary
	// bad-state share is Loss/badLoss and the mean bad dwell is MeanBurst
	// packets.
	pBadShare := e.cfg.Loss / badLoss
	if pBadShare > 1 {
		pBadShare = 1
	}
	pRecover := 1 / e.cfg.MeanBurst
	pEnter := pRecover * pBadShare / (1 - pBadShare + 1e-12)
	if e.inBurst {
		if e.rng.Float64() < pRecover {
			e.inBurst = false
		}
	} else if e.rng.Float64() < pEnter {
		e.inBurst = true
	}
	return e.inBurst && e.rng.Float64() < badLoss
}

// badLoss is the drop probability inside a loss burst.
const badLoss = 1.0

func (e *Emulator) oneWayLocked() time.Duration {
	d := e.cfg.Delay
	if j := e.cfg.Jitter; j > 0 {
		d += time.Duration(e.rng.Int63n(int64(2*j))) - j
	}
	if p := e.cfg.ProcDelay; p > 0 {
		d += time.Duration(e.rng.Int63n(int64(p)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// reorderExtraLocked is the hold-back of a reordered packet.
func (e *Emulator) reorderExtraLocked() time.Duration {
	if e.cfg.Jitter > 0 {
		return 4 * e.cfg.Jitter
	}
	return 10 * time.Millisecond
}

// Corrupt implements simnet.Corrupter. With probability cfg.Corrupt it
// returns a copy of p with one random bit flipped; otherwise it returns p
// unchanged. The input slice is never mutated, so the caller may share one
// backing buffer across the copies of a duplicated packet.
func (e *Emulator) Corrupt(p []byte) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Corrupt <= 0 || len(p) == 0 || e.rng.Float64() >= e.cfg.Corrupt {
		return p, false
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	bit := e.rng.Intn(len(cp) * 8)
	cp[bit/8] ^= 1 << (bit % 8)
	e.corrupted++
	return cp, true
}

// Stats reports lifetime counters: packets planned, dropped, duplicated and
// deliberately reordered.
func (e *Emulator) Stats() (planned, dropped, duplicated, reordered int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.planned, e.dropped, e.duplicated, e.reordered
}

// Corrupted reports how many delivered copies had a bit flipped in flight.
func (e *Emulator) Corrupted() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.corrupted
}

// Install wires a bidirectional emulated link between addresses a and b on
// net, returning the two per-direction emulators (a->b, b->a).
func Install(n *simnet.Network, a, b string, fwd, rev Config) (*Emulator, *Emulator) {
	ef := New(fwd)
	er := New(rev)
	n.SetLink(a, b, ef)
	n.SetLink(b, a, er)
	return ef, er
}

var _ simnet.Shaper = (*Emulator)(nil)
var _ simnet.Appender = (*Emulator)(nil)
var _ simnet.Corrupter = (*Emulator)(nil)
