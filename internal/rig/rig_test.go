package rig_test

import (
	"errors"
	"testing"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/rig"
	"retrolock/internal/rom/games"
	"retrolock/internal/vclock"
)

// TestRunOrdersActorsAndJoinsErrors: on a virtual clock the bodies run one
// at a time in site order, and each failure comes back wrapped with its site.
func TestRunOrdersActorsAndJoinsErrors(t *testing.T) {
	v := vclock.NewVirtual(time.Unix(0, 0))
	boom := errors.New("boom")
	var order []int
	err := rig.Run(v, 3, func(site int) error {
		order = append(order, site)
		if site == 1 {
			return boom
		}
		return nil
	})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("bodies ran in order %v, want [0 1 2]", order)
	}
	if !errors.Is(err, boom) || err.Error() != "site 1: boom" {
		t.Errorf("Run returned %v, want site 1's error", err)
	}
	if err := rig.Run(nil, 2, func(int) error { return nil }); err != nil {
		t.Errorf("host-clock Run returned %v", err)
	}
}

// TestMachineChargesEmulationCost: a frame costs Spec.Cost on the site's
// clock, and a rollback site gets no journal or flight recorder.
func TestMachineChargesEmulationCost(t *testing.T) {
	v := vclock.NewVirtual(time.Unix(0, 0))
	sp := rig.Spec{Clock: v, Game: "pong", ROM: games.MustLoad("pong"), Cost: 2 * time.Millisecond}
	s, err := rig.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Run(v, 1, func(int) error { s.Machine.StepFrame(0); return nil }); err != nil {
		t.Fatal(err)
	}
	if v.Elapsed() != sp.Cost || s.Machine.FrameCount() != 1 {
		t.Errorf("one frame took %v and left %d frames, want %v and 1", v.Elapsed(), s.Machine.FrameCount(), sp.Cost)
	}
	if s.Session == nil || s.Journal == nil || s.Flight == nil {
		t.Error("lockstep site lacks its session, journal or flight recorder")
	}
	sp.Rollback = true
	sp.Config = core.Config{SiteNo: 1}
	if r, err := rig.New(sp); err != nil || r.Rollback == nil || r.Session != nil || r.Flight != nil {
		t.Errorf("rollback site: %+v, %v", r, err)
	}
}
