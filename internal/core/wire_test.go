package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSyncMsgRoundTrip(t *testing.T) {
	m := syncMsg{
		Sender:    1,
		Ack:       1234,
		From:      10,
		To:        13,
		SendTime:  99999,
		EchoTime:  88888,
		EchoDelay: 777,
		HasEcho:   true,
		Inputs:    []uint16{0x00FF, 0xAB00, 0x1234, 0xFFFF},
	}
	got, err := decodeSync(encodeSync(nil, m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Sender != m.Sender || got.Ack != m.Ack || got.From != m.From || got.To != m.To ||
		got.SendTime != m.SendTime || got.EchoTime != m.EchoTime || got.EchoDelay != m.EchoDelay ||
		got.HasEcho != m.HasEcho {
		t.Errorf("header mismatch: %+v vs %+v", got, m)
	}
	if len(got.Inputs) != len(m.Inputs) {
		t.Fatalf("inputs %v, want %v", got.Inputs, m.Inputs)
	}
	for i := range m.Inputs {
		if got.Inputs[i] != m.Inputs[i] {
			t.Errorf("input %d = %#x, want %#x", i, got.Inputs[i], m.Inputs[i])
		}
	}
}

func TestSyncMsgKeepalive(t *testing.T) {
	m := syncMsg{Sender: 0, Ack: 42, From: 7, To: 6} // empty range
	got, err := decodeSync(encodeSync(nil, m))
	if err != nil {
		t.Fatalf("decode keepalive: %v", err)
	}
	if len(got.Inputs) != 0 {
		t.Errorf("keepalive carried %d inputs", len(got.Inputs))
	}
}

func TestSyncMsgNegativeAck(t *testing.T) {
	m := syncMsg{Sender: 2, Ack: -1, From: 1, To: 0}
	got, err := decodeSync(encodeSync(nil, m))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Ack != -1 {
		t.Errorf("ack = %d, want -1", got.Ack)
	}
}

func TestDecodeSyncRejectsGarbage(t *testing.T) {
	if _, err := decodeSync(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := decodeSync([]byte{msgSync, 0, 1}); err == nil {
		t.Error("short accepted")
	}
	m := encodeSync(nil, syncMsg{From: 0, To: 1, Inputs: []uint16{1, 2}})
	if _, err := decodeSync(m[:len(m)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	m[0] = 0xEE
	if _, err := decodeSync(m); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestPropertySyncMsgRoundTrip(t *testing.T) {
	f := func(sender byte, ack int32, from int32, inputs []uint16) bool {
		if len(inputs) > maxInputsPerMsg {
			inputs = inputs[:maxInputsPerMsg]
		}
		if from < 0 {
			from = -from
		}
		m := syncMsg{
			Sender: int(sender),
			Ack:    ack,
			From:   from,
			To:     from + int32(len(inputs)) - 1,
			Inputs: inputs,
		}
		got, err := decodeSync(encodeSync(nil, m))
		if err != nil {
			return false
		}
		if got.Ack != m.Ack || got.From != m.From || got.To != m.To || len(got.Inputs) != len(m.Inputs) {
			return false
		}
		for i := range m.Inputs {
			if got.Inputs[i] != m.Inputs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSnapChunkRoundTrip(t *testing.T) {
	c := snapChunk{Sender: 3, Frame: 1000, Seq: 4, Total: 9, Data: []byte{1, 2, 3, 4, 5}}
	got, err := decodeSnapChunk(encodeSnapChunk(c))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Sender != 3 || got.Frame != 1000 || got.Seq != 4 || got.Total != 9 || string(got.Data) != string(c.Data) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestSnapChunkRejectsGarbage(t *testing.T) {
	if _, err := decodeSnapChunk([]byte{msgSnapChunk}); err == nil {
		t.Error("short chunk accepted")
	}
	c := encodeSnapChunk(snapChunk{Data: []byte{1, 2, 3}})
	if _, err := decodeSnapChunk(c[:len(c)-1]); err == nil {
		t.Error("truncated chunk accepted")
	}
}

func TestRTTEstimatorEWMA(t *testing.T) {
	var r RTTEstimator
	if r.Valid() || r.Estimate() != 0 {
		t.Fatal("fresh estimator not zero/invalid")
	}
	r.Sample(80 * time.Millisecond)
	if !r.Valid() || r.Estimate() != 80*time.Millisecond {
		t.Fatalf("first sample: est=%v", r.Estimate())
	}
	r.Sample(160 * time.Millisecond)
	want := (7*80*time.Millisecond + 160*time.Millisecond) / 8
	if r.Estimate() != want {
		t.Fatalf("after second sample: est=%v, want %v", r.Estimate(), want)
	}
	r.Sample(-time.Second) // ignored
	if r.Estimate() != want {
		t.Fatal("negative sample changed the estimate")
	}
	// Convergence: feed 50 samples of a new value.
	for i := 0; i < 50; i++ {
		r.Sample(40 * time.Millisecond)
	}
	if d := r.Estimate() - 40*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("estimate did not converge: %v", r.Estimate())
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{SiteNo: 0}
	if _, err := NewInputSync(base, vclockStub{}, time.Time{}, nil); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{SiteNo: -1},
		{NumPlayers: 1},
		{NumPlayers: 3},
		{StartFrame: -7},
	}
	for i, cfg := range bad {
		if _, err := NewInputSync(cfg, vclockStub{}, time.Time{}, nil); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := Config{}.withDefaults()
	if timePerFrame != time.Second/60 {
		t.Errorf("timePerFrame = %v", timePerFrame)
	}
	// The default lag is 6 frames: at 60 FPS, the paper's 100 ms constant.
	if cfg.BufFrame != 6 {
		t.Errorf("BufFrame = %d, want 6 (100 ms at 60 FPS)", cfg.BufFrame)
	}
	if cfg.IsObserver() {
		t.Error("site 0 misclassified as observer")
	}
	obs := Config{SiteNo: 2}.withDefaults()
	if !obs.IsObserver() {
		t.Error("site 2 of a 2-player game must be an observer")
	}
}

// vclockStub satisfies vclock.Clock for construction-only tests.
type vclockStub struct{}

func (vclockStub) Now() time.Time        { return time.Time{} }
func (vclockStub) Sleep(d time.Duration) {}
