package relay

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// The alert pipeline's determinism contract: the whole chain — shard packet
// path, fleet grading, history sampling, burn-rate evaluation, capture
// victim selection, incident timeline — runs under the virtual clock, so
// rerunning the same chaos scenario must reproduce the timeline bit for
// bit. This is what makes a soak failure debuggable: the incident log from
// a red CI run can be regenerated locally, byte-identical.
//
// The scenario is a compact cousin of the 10k soak: a small population,
// the same warmup / burst-loss / partition / heal phases, flip capture
// disabled and the burn-rate alert driving a single capture.

// alertScenarioDigest runs the scenario once and renders everything the
// alert pipeline produced into one string.
func alertScenarioDigest(t *testing.T, seed int64) string {
	t.Helper()
	const (
		nSessions = 64
		nDrivers  = 4
		nShards   = 4
		tick      = 50 * time.Millisecond
	)
	gradeWindow := 10 * tick
	epoch := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	v := vclock.NewVirtual(epoch)
	net := simnet.New(v)

	ep := net.MustBind("relay-0")
	ep.SetQueueCap(1 << 14)
	front := NewSimFront(ep)
	frontAddr := ep.Addr()
	d, err := NewDaemon(Config{
		Shards:             nShards,
		MaxSessions:        nSessions,
		QueueLen:           1 << 12,
		WriteBatch:         64,
		SessionTTL:         time.Hour,
		Clock:              v,
		Seed:               seed,
		Stats:              true,
		AutoCaptureRecords: 16,
		AutoCaptureBytes:   2048,
	}, []Front{front})
	if err != nil {
		t.Fatal(err)
	}
	var captured atomic.Value // Token of the one bundle
	fl, err := NewFleet(d, FleetConfig{
		Window: gradeWindow,
		TopK:   4,
		Health: obs.HealthConfig{
			FrameTarget:           tick,
			FrameDegradedMargin:   tick / 5,
			FrameInfeasibleMargin: 4 * tick,
		},
		captureLimit:       1,
		captureEvery:       time.Hour,
		disableFlipCapture: true,
		OnCapture:          func(ac AnomalyCapture) { captured.Store(ac.Token) },
	})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	fl.Register(reg)
	var digest strings.Builder
	var svc *history.Service
	svc = history.Wire(reg, history.Options{
		Store: history.Config{Resolutions: []history.Resolution{
			{Step: gradeWindow, Slots: 64},
			{Step: 5 * gradeWindow, Slots: 64},
		}},
		Rules: []history.Rule{{
			Name:   "fleet-session-health",
			Source: history.SourceGauge,
			Bad: []string{
				obs.Key(MetricSessionVerdicts, obs.Labels{"state": "degraded"}),
				obs.Key(MetricSessionVerdicts, obs.Labels{"state": "infeasible"}),
			},
			Total:      []string{MetricSessionTracked},
			Budget:     0.05,
			FastWindow: 2 * gradeWindow,
			SlowWindow: 4 * gradeWindow,
			Threshold:  4,
			ClearAfter: 2,
		}},
		OnTransition: func(ev history.Event) {
			fmt.Fprintf(&digest, "event %s firing=%v at=%d fast=%.6f slow=%.6f\n",
				ev.Name, ev.Firing, ev.AtNs, ev.BurnFast, ev.BurnSlow)
			if !ev.Firing {
				return
			}
			at := time.Unix(0, ev.AtNs)
			snap := fl.Snapshot()
			svc.Log.Annotate(ev.Name, at, "fleet: %d tracked, %d degraded, %d infeasible",
				snap.Summary.Tracked, snap.Summary.Degraded, snap.Summary.Infeasible)
			if tok, ok := fl.CaptureBurning(at); ok {
				svc.Log.AttachCapture(ev.Name, history.CaptureRef{
					Session: tok.String(), Path: "(in-memory)", AtNs: ev.AtNs,
				})
			}
		},
	})

	sessions := make([]Token, nSessions)
	for i := range sessions {
		p, err := d.Place()
		if err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
		sessions[i] = p.Token
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	runDriver := func(j int) {
		defer wg.Done()
		epA := net.MustBind(fmt.Sprintf("drvA-%d", j))
		epB := net.MustBind(fmt.Sprintf("drvB-%d", j))
		epA.SetQueueCap(1 << 12)
		epB.SetQueueCap(1 << 12)
		v.Sleep(time.Duration(j+1) * tick / (nDrivers + 1))
		buf := make([]byte, HeaderLen+8)
		for !stop.Load() {
			for i := j; i < nSessions; i += nDrivers {
				for site := 0; site < 2; site++ {
					n := PutHeader(buf, sessions[i], site)
					binary.BigEndian.PutUint64(buf[n:], uint64(sessions[i]))
					ep := epA
					if site == 1 {
						ep = epB
					}
					_ = ep.SendTo(frontAddr, buf[:n+8])
				}
			}
			for _, ep := range []*simnet.Endpoint{epA, epB} {
				for {
					if _, ok := ep.TryRecv(); !ok {
						break
					}
				}
			}
			v.Sleep(tick)
		}
	}

	// Chaos reshapes the first half of the drivers, same phases as the soak.
	setChaos := func(shape func(j int) simnet.Shaper) {
		for j := 0; j < nDrivers/2; j++ {
			sh := shape(j)
			for _, drv := range []string{fmt.Sprintf("drvA-%d", j), fmt.Sprintf("drvB-%d", j)} {
				net.SetLink(drv, frontAddr, sh)
				net.SetLink(frontAddr, drv, sh)
			}
		}
	}
	// One root actor starts every other, so none runs before all exist.
	var controller, samplerDone, relayDone, fleetDone <-chan struct{}
	<-v.Go(func() {
		controller = v.Go(func() {
			v.Sleep(time.Second) // warmup
			setChaos(func(j int) simnet.Shaper {
				return netem.New(netem.Config{
					Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
					Loss: 0.3, BurstLoss: true, Seed: seed + int64(j),
				})
			})
			v.Sleep(time.Second) // burst loss
			setChaos(func(j int) simnet.Shaper {
				return netem.New(netem.Config{Loss: 1, Seed: seed + int64(j)})
			})
			v.Sleep(time.Second) // partition
			setChaos(func(int) simnet.Shaper { return nil })
			v.Sleep(5 * time.Second) // heal
			stop.Store(true)
			_ = d.Close() // the relay and fleet loops exit at their next wake-up
		})

		relayDone, fleetDone = d.StartVirtual(v), fl.StartVirtual(v)
		samplerDone = v.Go(func() {
			v.Sleep(gradeWindow + gradeWindow/2)
			for !stop.Load() {
				svc.Sample(v.Now())
				v.Sleep(gradeWindow)
			}
		})
		wg.Add(nDrivers)
		for j := 0; j < nDrivers; j++ {
			j := j
			v.Go(func() { runDriver(j) })
		}
	})
	<-controller
	wg.Wait()
	<-samplerDone
	<-relayDone
	<-fleetDone

	if tok, ok := captured.Load().(Token); ok {
		fmt.Fprintf(&digest, "captured %s\n", tok)
	} else {
		digest.WriteString("captured none\n")
	}
	incidents, dropped := svc.Log.Snapshot()
	var timeline strings.Builder
	history.RenderTimeline(&timeline, incidents, dropped)
	digest.WriteString(timeline.String())
	return digest.String()
}

func TestAlertTimelineBitIdenticalAcrossReruns(t *testing.T) {
	first := alertScenarioDigest(t, 7)
	second := alertScenarioDigest(t, 7)
	if first != second {
		t.Fatalf("alert pipeline is not deterministic under the virtual clock:\n--- first run ---\n%s--- second run ---\n%s",
			first, second)
	}
	if !strings.Contains(first, "firing=true") || !strings.Contains(first, "firing=false") {
		t.Fatalf("scenario did not exercise a full fire/clear cycle:\n%s", first)
	}
	if strings.Contains(first, "captured none") {
		t.Fatalf("scenario captured no session:\n%s", first)
	}
	t.Logf("deterministic digest:\n%s", first)
}
