package capture

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// shareScript is relay-shaped traffic for two Recorders: each datagram is
// received, and most are later sent on, a few batches after they arrived.
// One Recorder takes every send through RecordAgain on the receive's Ref,
// the other copies it with Record. A forward marked drained was parked and
// has no Ref, so both Recorders copy it, as the relay does.
type shareScript struct {
	share, copied *Recorder
	epoch         time.Time
	pending       []shareSend
	sharedBytes   int // payload bytes the sharing Recorder did not copy
}

type shareSend struct {
	site    int
	payload []byte
	ref     Ref
	drained bool
}

func (s *shareScript) recv(at time.Time, site int, p []byte) Ref {
	s.copied.Record(at, DirRecv, site, p)
	return s.share.RecordRef(at, DirRecv, site, p)
}

func (s *shareScript) flush(at time.Time) {
	for _, f := range s.pending {
		s.copied.Record(at, DirSend, 1-f.site, f.payload)
		if f.drained {
			s.share.Record(at, DirSend, 1-f.site, f.payload)
			continue
		}
		if f.ref != (Ref{}) && s.share.Len() < len(s.share.recs) {
			s.sharedBytes += len(f.payload)
		}
		s.share.RecordAgain(at, DirSend, 1-f.site, f.ref)
	}
	s.pending = s.pending[:0]
}

// run offers n datagrams with payloads of size() bytes and flushes the
// sends every few datagrams.
func (s *shareScript) run(rng *rand.Rand, n int, size func() int) {
	at := s.epoch
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(1+rng.Intn(500)) * time.Microsecond)
		site := rng.Intn(2)
		p := ringPayload(i, size())
		ref := s.recv(at, site, p)
		if rng.Intn(8) != 0 { // the rest are stray or header-only: not forwarded
			s.pending = append(s.pending, shareSend{site: site, payload: p, ref: ref, drained: rng.Intn(10) == 0})
		}
		if rng.Intn(4) == 0 {
			s.flush(at.Add(time.Duration(rng.Intn(100)) * time.Microsecond))
		}
	}
	s.flush(at.Add(time.Millisecond))
}

// TestSharedRecordsEncodeLikeCopies is the differential check of
// RecordRef/RecordAgain. While the byte budget does not bind, a Recorder fed
// through shared references encodes byte for byte like one fed copies, with
// the same refusals when the record budget fills, and holds each shared
// payload once. When the byte budget binds, sharing keeps at least as many
// records, each with the payload of the datagram it stands for. That half
// uses one payload size per trial, as a relay's sync stream does: with mixed
// sizes, first-fit can let the copying Recorder squeeze in several small
// datagrams after refusing one large one that sharing had room for.
func TestSharedRecordsEncodeLikeCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 40; trial++ {
		maxRecs := 1 + rng.Intn(400)
		n := rng.Intn(300)
		s := &shareScript{
			share:  NewRecorder(maxRecs, 1<<20),
			copied: NewRecorder(maxRecs, 1<<20),
			epoch:  time.Unix(1_000_000, int64(trial)),
		}
		s.run(rng, n, func() int { return 4 + rng.Intn(200) })
		meta := Meta{Notes: "differential"}
		a, b := s.share.Snapshot(meta), s.copied.Snapshot(meta)
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Fatalf("trial %d (%d records budget, %d datagrams): shared encoding differs from copied (%d vs %d records, %d vs %d dropped)",
				trial, maxRecs, n, len(a.Records), len(b.Records), a.Meta.Dropped, b.Meta.Dropped)
		}
		if got, want := s.share.Resident(), s.copied.Resident()-s.sharedBytes; got != want {
			t.Fatalf("trial %d: sharing Recorder resident %d, want %d (copies' %d less the %d shared bytes)",
				trial, got, want, s.copied.Resident(), s.sharedBytes)
		}
	}

	for trial := 0; trial < 40; trial++ {
		maxBytes := 64 + rng.Intn(4096)
		s := &shareScript{
			share:  NewRecorder(1024, maxBytes),
			copied: NewRecorder(1024, maxBytes),
			epoch:  time.Unix(2_000_000, int64(trial)),
		}
		n := 4 + rng.Intn(100)
		s.run(rng, 300, func() int { return n })
		a, b := s.share.Snapshot(Meta{}), s.copied.Snapshot(Meta{})
		if len(a.Records) < len(b.Records) {
			t.Fatalf("trial %d (%d-byte budget): sharing kept %d records, copying %d", trial, maxBytes, len(a.Records), len(b.Records))
		}
		if len(a.Records)+int(a.Meta.Dropped) != len(b.Records)+int(b.Meta.Dropped) {
			t.Fatalf("trial %d: %d kept + %d dropped with sharing, %d + %d with copies",
				trial, len(a.Records), a.Meta.Dropped, len(b.Records), b.Meta.Dropped)
		}
		for j, r := range a.Records {
			if len(r.Payload) < 4 {
				t.Fatalf("trial %d: record %d has a %d-byte payload", trial, j, len(r.Payload))
			}
			id := int(binary.LittleEndian.Uint32(r.Payload))
			if !bytes.Equal(r.Payload, ringPayload(id, len(r.Payload))) {
				t.Fatalf("trial %d: record %d's payload is not datagram %d's", trial, j, id)
			}
		}
	}
}

// TestRingCannotShare: a Ring evicts, which would free bytes a shared
// record still names, so sharing is not in its method set.
func TestRingCannotShare(t *testing.T) {
	ring := reflect.TypeOf((*Ring)(nil))
	for _, name := range []string{"RecordRef", "RecordAgain"} {
		if _, ok := ring.MethodByName(name); ok {
			t.Errorf("*Ring has %s", name)
		}
		if _, ok := reflect.TypeOf((*Recorder)(nil)).MethodByName(name); !ok {
			t.Errorf("*Recorder lacks %s", name)
		}
	}
}

// TestRecordAgainZeroRef: a refused datagram's zero Ref records nothing and
// counts a loss, as copying the datagram would.
func TestRecordAgainZeroRef(t *testing.T) {
	epoch := time.Unix(0, 0)
	r := NewRecorder(4, 8)
	ref := r.RecordRef(epoch, DirRecv, 0, make([]byte, 9))
	if ref != (Ref{}) {
		t.Fatal("a refused datagram returned a Ref")
	}
	r.RecordAgain(epoch, DirSend, 1, ref)
	if c := r.Snapshot(Meta{}); len(c.Records) != 0 || c.Meta.Dropped != 2 {
		t.Fatalf("kept %d records with %d dropped, want 0 and 2", len(c.Records), c.Meta.Dropped)
	}
}
