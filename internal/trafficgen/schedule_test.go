package trafficgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"retrolock/internal/capture"
)

// TestRunScheduleDigest pins the generator's send schedule byte for byte:
// the SHA-256 of the client-side capture (every send and delivery with its
// instant) and of the relay tap for small runs whose think time and churn
// are short enough that every session joins late, thinks, leaves, sits out
// its down time and rebinds several times. In "short-down" the down time is
// shorter than an input period, so a rebind falls due before either site's
// next send. A change to how the drivers walk their sessions must leave
// every digest as it is; a change that means to move the schedule updates
// them and says why. Each encoding must also decode to as many records as
// were recorded and re-encode to the same bytes.
func TestRunScheduleDigest(t *testing.T) {
	for _, tc := range []struct {
		name              string
		churn             ChurnModel
		client, relayView string
	}{
		{
			name:      "think-churn",
			churn:     ChurnModel{LeaveEvery: 250 * time.Millisecond, DownFor: 60 * time.Millisecond},
			client:    "8b90552a2f085b0b3d86223d5d9d8e36a17f2ecb201bd115a2e1b1c3d32a14fd",
			relayView: "f647c4eddb5ed4d1b5d6841efa8bdfd34e3d6aaa3824d0f5249a50abce4d32f6",
		},
		{
			name:      "short-down",
			churn:     ChurnModel{LeaveEvery: 100 * time.Millisecond, DownFor: 4 * time.Millisecond},
			client:    "d07464554c1da87d759395caa3073a9b65be07883ecfa5a914e39af4ca9a1ab5",
			relayView: "a32f48491adef3ce63c129535c0d437a81b18c139827b8febc6eb196ee453206",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client := capture.NewRecorder(1<<16, 1<<22)
			relayTap := capture.NewRecorder(1<<16, 1<<22)
			res, err := Run(RunConfig{
				Model: Model{
					Sessions:   24,
					Drivers:    3,
					joinSpread: 120 * time.Millisecond,
					Think:      ThinkModel{Every: 150 * time.Millisecond, For: 40 * time.Millisecond},
					Churn:      tc.churn,
					Seed:       21,
				},
				Profile:  "wifi",
				Shards:   2,
				warmup:   100 * time.Millisecond,
				Measure:  500 * time.Millisecond,
				drain:    100 * time.Millisecond,
				Capture:  client,
				relayTap: relayTap,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent == 0 || res.Recv == 0 {
				t.Fatalf("run moved no traffic (sent=%d recv=%d)", res.Sent, res.Recv)
			}
			for name, rec := range map[string]*capture.Recorder{"client": client, "relay": relayTap} {
				if dropped := rec.Snapshot(capture.Meta{}).Meta.Dropped; dropped != 0 {
					t.Fatalf("%s capture dropped %d records; raise its budgets", name, dropped)
				}
			}
			for _, v := range []struct {
				name string
				rec  *capture.Recorder
				want string
			}{{"client capture", client, tc.client}, {"relay tap", relayTap, tc.relayView}} {
				enc := v.rec.Snapshot(capture.Meta{Game: "trafficgen", Profile: "wifi"}).Encode()
				sum := sha256.Sum256(enc)
				if got := hex.EncodeToString(sum[:]); got != v.want {
					t.Errorf("%s digest %s, want %s (%d records)", v.name, got, v.want, v.rec.Len())
				}
				dec, err := capture.Decode(enc)
				if err != nil {
					t.Fatalf("%s does not decode: %v", v.name, err)
				}
				if len(dec.Records) != v.rec.Len() {
					t.Errorf("%s decodes to %d records, recorded %d", v.name, len(dec.Records), v.rec.Len())
				}
				if !bytes.Equal(dec.Encode(), enc) {
					t.Errorf("%s re-encodes to different bytes", v.name)
				}
			}
		})
	}
}
