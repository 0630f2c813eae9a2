package games

import (
	"math/rand"
	"testing"

	"retrolock/internal/vm"
)

func mustBoot(t *testing.T, name string) *vm.Console {
	t.Helper()
	r, err := Load(name)
	if err != nil {
		t.Fatalf("Load(%q): %v", name, err)
	}
	c, err := r.Boot()
	if err != nil {
		t.Fatalf("Boot(%q): %v", name, err)
	}
	c.EnableDebugLog() // the game tests observe SYS scoring events
	return c
}

// pads packs the two players' button bytes into the console input word.
func pads(p0, p1 byte) uint16 { return uint16(p0) | uint16(p1)<<8 }

func TestAllGamesAssembleAndSurviveFuzz(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			c := mustBoot(t, name)
			rng := rand.New(rand.NewSource(7))
			for f := 0; f < 1200; f++ {
				c.StepFrame(uint16(rng.Intn(0x10000)))
				if c.Halted() {
					t.Fatalf("%s halted at frame %d (bug or illegal opcode)", name, f)
				}
			}
			if c.Overruns() != 0 {
				t.Errorf("%s overran the cycle budget %d times", name, c.Overruns())
			}
			// The screen must not be blank: games draw every frame.
			lit := 0
			for y := 0; y < vm.ScreenH; y++ {
				for x := 0; x < vm.ScreenW; x++ {
					if c.Pixel(x, y) != 0 {
						lit++
					}
				}
			}
			if lit == 0 {
				t.Errorf("%s drew nothing after 1200 frames", name)
			}
		})
	}
}

func TestGamesAreDeterministicUnderLockstep(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := mustBoot(t, name)
			b := mustBoot(t, name)
			rng := rand.New(rand.NewSource(99))
			for f := 0; f < 1000; f++ {
				in := uint16(rng.Intn(0x10000))
				a.StepFrame(in)
				b.StepFrame(in)
				if a.StateHash() != b.StateHash() {
					t.Fatalf("%s replicas diverged at frame %d", name, f)
				}
			}
		})
	}
}

func TestUnknownGame(t *testing.T) {
	if _, err := Load("zork"); err == nil {
		t.Fatal("Load of unknown game succeeded")
	}
}

// --- Pong ---

const (
	pongP0Y    = 0x8010
	pongScore0 = 0x8018
)

func TestPongPaddleRespondsToInput(t *testing.T) {
	c := mustBoot(t, "pong")
	c.StepFrame(0) // init frame
	startY := c.Peek32(pongP0Y)
	for i := 0; i < 10; i++ {
		c.StepFrame(pads(vm.BtnDown, 0))
	}
	down := c.Peek32(pongP0Y)
	if down <= startY {
		t.Fatalf("paddle did not move down: %d -> %d", startY, down)
	}
	for i := 0; i < 60; i++ {
		c.StepFrame(pads(vm.BtnUp, 0))
	}
	if got := c.Peek32(pongP0Y); got != 0 {
		t.Fatalf("paddle did not clamp at the top: y=%d", got)
	}
	for i := 0; i < 120; i++ {
		c.StepFrame(pads(vm.BtnDown, 0))
	}
	if got := c.Peek32(pongP0Y); got != 80 {
		t.Fatalf("paddle did not clamp at the bottom: y=%d", got)
	}
}

func TestPongEventuallyScores(t *testing.T) {
	c := mustBoot(t, "pong")
	for f := 0; f < 36000; f++ {
		c.StepFrame(0) // both players idle
		if events := c.DebugLog(); len(events) >= 3 {
			for _, e := range events {
				if e.Code != 1 && e.Code != 2 && e.Code != 3 && e.Code != 4 {
					t.Fatalf("unexpected SYS code %d", e.Code)
				}
			}
			return
		}
	}
	t.Fatal("no scoring in 10 simulated minutes of idle pong")
}

func TestPongScoreMMIOMatchesSysLog(t *testing.T) {
	c := mustBoot(t, "pong")
	for f := 0; f < 36000; f++ {
		c.StepFrame(0)
		for _, e := range c.DebugLog() {
			if e.Code == 1 {
				// Score in RAM should match the logged value right
				// after the event (unless a match reset happened).
				if got := c.Peek32(pongScore0); got != e.Value && got != 0 {
					t.Fatalf("score0 RAM=%d, SYS logged %d", got, e.Value)
				}
				return
			}
		}
	}
	t.Skip("player 0 never scored in idle run; skipping RAM check")
}

// --- Duel ---

const (
	duelP0X  = 0x8100
	duelP1X  = 0x8140
	duelP1HP = 0x8140 + 12
)

func TestDuelWalkAndNoCross(t *testing.T) {
	c := mustBoot(t, "duel")
	c.StepFrame(0)
	x0 := c.Peek32(duelP0X)
	// Walk both fighters toward each other for 30 frames.
	for i := 0; i < 30; i++ {
		c.StepFrame(pads(vm.BtnRight, vm.BtnLeft))
	}
	nx0, nx1 := c.Peek32(duelP0X), c.Peek32(duelP1X)
	if nx0 <= x0 {
		t.Fatalf("fighter 0 did not walk right: %d -> %d", x0, nx0)
	}
	if nx1 < nx0+10 {
		t.Fatalf("fighters crossed: p0=%d p1=%d", nx0, nx1)
	}
	if nx1 != nx0+10 {
		t.Fatalf("fighters not in contact after 30 frames: p0=%d p1=%d", nx0, nx1)
	}
}

func TestDuelPunchDoesDamageAndWinsRound(t *testing.T) {
	c := mustBoot(t, "duel")
	c.StepFrame(0)
	// Close the distance.
	for i := 0; i < 30; i++ {
		c.StepFrame(pads(vm.BtnRight, vm.BtnLeft))
	}
	// Mash punch for 300 frames.
	sawHit := false
	sawRound := false
	for i := 0; i < 300; i++ {
		c.StepFrame(pads(vm.BtnA, 0))
	}
	for _, e := range c.DebugLog() {
		switch e.Code {
		case 12:
			sawHit = true
			if e.Value >= 40 {
				t.Fatalf("hit logged but hp=%d did not decrease", e.Value)
			}
		case 3:
			sawRound = true
		}
	}
	if !sawHit {
		t.Fatal("no hit registered while punching in contact")
	}
	if !sawRound {
		t.Fatal("player 1's hp never reached zero in 300 frames of punches")
	}
	if hp := int32(c.Peek32(duelP1HP)); hp <= 0 {
		t.Fatalf("round did not reset hp: p1 hp = %d", hp)
	}
}

func TestDuelBlockingReducesDamage(t *testing.T) {
	c := mustBoot(t, "duel")
	c.StepFrame(0)
	for i := 0; i < 30; i++ {
		c.StepFrame(pads(vm.BtnRight, vm.BtnLeft))
	}
	// Punch while player 1 blocks.
	for i := 0; i < 50; i++ {
		c.StepFrame(pads(vm.BtnA, vm.BtnB))
	}
	var worst uint32 = 40
	hits := 0
	for _, e := range c.DebugLog() {
		if e.Code == 12 {
			hits++
			if e.Value < worst {
				worst = e.Value
			}
		}
	}
	if hits == 0 {
		t.Fatal("no blocked hits registered")
	}
	// ~4 punches in 50 frames at 1 damage each: hp stays >= 40-hits.
	if worst < 40-uint32(hits)*1 {
		t.Fatalf("blocked damage too high: hp fell to %d after %d hits", worst, hits)
	}
}

// --- Tanks ---

func TestTanksManeuverAndShoot(t *testing.T) {
	c := mustBoot(t, "tanks")
	c.StepFrame(0)
	// Drive both tanks to the top lane (clear of obstacles).
	for i := 0; i < 60; i++ {
		c.StepFrame(pads(vm.BtnUp, vm.BtnUp))
	}
	const t0y = 0x8204
	if got := c.Peek32(t0y); got != 2 {
		t.Fatalf("tank 0 not at the top wall: y=%d", got)
	}
	// Face right again, then fire and wait for the shell to fly across.
	c.StepFrame(pads(vm.BtnRight, 0))
	for i := 0; i < 60; i++ {
		c.StepFrame(pads(vm.BtnA, 0))
	}
	scored := false
	for _, e := range c.DebugLog() {
		if e.Code == 1 && e.Value == 1 {
			scored = true
		}
	}
	if !scored {
		t.Fatal("tank 0's shell never hit tank 1 across the clear top lane")
	}
}

func TestTanksWallsBlockMovement(t *testing.T) {
	c := mustBoot(t, "tanks")
	c.StepFrame(0)
	const t0x = 0x8200
	// Drive left into the border; x must clamp at 2.
	for i := 0; i < 30; i++ {
		c.StepFrame(pads(vm.BtnLeft, 0))
	}
	if got := c.Peek32(t0x); got != 2 {
		t.Fatalf("tank 0 passed through the left wall: x=%d", got)
	}
}

func TestTanksShellStopsAtObstacle(t *testing.T) {
	c := mustBoot(t, "tanks")
	c.StepFrame(0)
	// Fire right from the start position: the centre obstacle is in the way.
	for i := 0; i < 120; i++ {
		c.StepFrame(pads(vm.BtnA, 0))
	}
	for _, e := range c.DebugLog() {
		if e.Code == 1 {
			t.Fatal("shell scored through the centre obstacle")
		}
	}
}

func TestCatalogMetadata(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("catalog has %d games, want >= 3", len(names))
	}
	seen := map[uint32]string{}
	for _, n := range names {
		meta := catalog[n]
		if meta.Title == "" {
			t.Errorf("game %q has no title", n)
		}
		if prev, dup := seen[meta.Seed]; dup {
			t.Errorf("games %q and %q share an LFSR seed", prev, n)
		}
		seen[meta.Seed] = n
		r := MustLoad(n)
		if r.Title != meta.Title {
			t.Errorf("game %q ROM title %q != catalog title %q", n, r.Title, meta.Title)
		}
		if len(r.Code)%4 != 0 {
			t.Errorf("game %q code length %d not instruction aligned", n, len(r.Code))
		}
	}
}
