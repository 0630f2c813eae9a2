package vm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// scribbler is a program that mixes pad input, randomness and VRAM writes
// every frame — a miniature "game" for determinism tests.
func scribbler() []byte {
	return program(
		// r1 = pad0 | pad1<<8
		Instr{Op: OpMOVI, Rd: 4, Imm: AddrPad0},
		Instr{Op: OpLDB, Rd: 1, Ra: 4, Imm: 0},
		Instr{Op: OpLDB, Rd: 2, Ra: 4, Imm: 1},
		Instr{Op: OpSHLI, Rd: 2, Ra: 2, Imm: 8},
		Instr{Op: OpOR, Rd: 1, Ra: 1, Rb: 2, Imm: 2},
		// r3 = rand mixed with input
		Instr{Op: OpRAND, Rd: 3},
		Instr{Op: OpXOR, Rd: 3, Ra: 3, Rb: 1, Imm: 1},
		// write into VRAM at (rand % VRAMSize)
		Instr{Op: OpMOVI, Rd: 5, Imm: 0x3000},
		Instr{Op: OpMOD, Rd: 6, Ra: 3, Rb: 5, Imm: 5},
		Instr{Op: OpMOVI, Rd: 7, Imm: VRAMBase},
		Instr{Op: OpADD, Rd: 7, Ra: 7, Rb: 6, Imm: 6},
		Instr{Op: OpSTB, Rd: 3, Ra: 7, Imm: 0},
		// accumulate into RAM counter and drive the audio regs
		Instr{Op: OpMOVI, Rd: 8, Imm: 0x4000},
		Instr{Op: OpLDW, Rd: 9, Ra: 8, Imm: 0},
		Instr{Op: OpADD, Rd: 9, Ra: 9, Rb: 3, Imm: 3},
		Instr{Op: OpSTW, Rd: 9, Ra: 8, Imm: 0},
		Instr{Op: OpMOVI, Rd: 10, Imm: AddrAudioF},
		Instr{Op: OpANDI, Rd: 11, Ra: 3, Imm: 0x3F},
		Instr{Op: OpSTB, Rd: 11, Ra: 10, Imm: 0},
		Instr{Op: OpMOVI, Rd: 11, Imm: 200},
		Instr{Op: OpSTB, Rd: 11, Ra: 10, Imm: 1},
		Instr{Op: OpYIELD},
		Instr{Op: OpJMP, Imm: 0},
	)
}

func newScribbler(t *testing.T, seed uint32) *Console {
	t.Helper()
	c, err := New(Params{Code: scribbler(), Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// TestDeterminismSameInputs is the paper's core assumption (§2, §5): same
// initial state + same input sequence => same sequence of output states.
func TestDeterminismSameInputs(t *testing.T) {
	a := newScribbler(t, 42)
	b := newScribbler(t, 42)
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < 500; f++ {
		in := uint16(rng.Intn(0x10000))
		a.StepFrame(in)
		b.StepFrame(in)
		if a.StateHash() != b.StateHash() {
			t.Fatalf("replicas diverged at frame %d", f)
		}
	}
}

func TestDivergenceOnDifferentInputs(t *testing.T) {
	a := newScribbler(t, 42)
	b := newScribbler(t, 42)
	a.StepFrame(0x0001)
	b.StepFrame(0x0002)
	if a.StateHash() == b.StateHash() {
		t.Fatal("different inputs produced identical states; hash too weak or input ignored")
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	c := newScribbler(t, 9)
	rng := rand.New(rand.NewSource(2))
	for f := 0; f < 100; f++ {
		c.StepFrame(uint16(rng.Intn(0x10000)))
	}
	snap := c.Save()
	wantHash := c.StateHash()

	// Run the original forward with recorded inputs.
	var inputs []uint16
	for f := 0; f < 50; f++ {
		in := uint16(rng.Intn(0x10000))
		inputs = append(inputs, in)
		c.StepFrame(in)
	}
	finalHash := c.StateHash()

	// Restore a second console from the snapshot and replay.
	clone, err := New(Params{Code: scribbler(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if clone.StateHash() != wantHash {
		t.Fatal("restored state hash differs from snapshot state")
	}
	if clone.FrameCount() != 100 {
		t.Fatalf("restored frame count = %d, want 100", clone.FrameCount())
	}
	for _, in := range inputs {
		clone.StepFrame(in)
	}
	if clone.StateHash() != finalHash {
		t.Fatal("replay from snapshot diverged from original (late-join would fail)")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	c := newScribbler(t, 1)
	if err := c.Restore([]byte("short")); err == nil {
		t.Error("short savestate accepted")
	}
	snap := c.Save()
	snap[0] = 'X'
	if err := c.Restore(snap); err == nil {
		t.Error("bad magic accepted")
	}
	snap2 := c.Save()
	snap2[4] = 0xFF // version
	if err := c.Restore(snap2); err == nil {
		t.Error("bad version accepted")
	}
}

func TestSaveIsStable(t *testing.T) {
	c := newScribbler(t, 5)
	c.StepFrame(0x1234)
	if !bytes.Equal(c.Save(), c.Save()) {
		t.Error("two Saves of the same state differ")
	}
}

// Property: for any input sequence, two identical consoles remain
// hash-identical frame by frame.
func TestPropertyLockstepDeterminism(t *testing.T) {
	f := func(inputs []uint16, seed uint32) bool {
		if len(inputs) > 64 {
			inputs = inputs[:64]
		}
		a, err := New(Params{Code: scribbler(), Seed: seed})
		if err != nil {
			return false
		}
		b, err := New(Params{Code: scribbler(), Seed: seed})
		if err != nil {
			return false
		}
		for _, in := range inputs {
			a.StepFrame(in)
			b.StepFrame(in)
			if a.StateHash() != b.StateHash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Save/Restore is lossless at arbitrary points in arbitrary runs.
func TestPropertySaveRestoreLossless(t *testing.T) {
	f := func(pre, post []uint16, seed uint32) bool {
		if len(pre) > 32 {
			pre = pre[:32]
		}
		if len(post) > 32 {
			post = post[:32]
		}
		orig, err := New(Params{Code: scribbler(), Seed: seed})
		if err != nil {
			return false
		}
		for _, in := range pre {
			orig.StepFrame(in)
		}
		snap := orig.Save()
		clone, err := New(Params{Code: scribbler(), Seed: seed + 1}) // different seed: Restore must overwrite it
		if err != nil {
			return false
		}
		if err := clone.Restore(snap); err != nil {
			return false
		}
		for _, in := range post {
			orig.StepFrame(in)
			clone.StepFrame(in)
		}
		return orig.StateHash() == clone.StateHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// toneConsole programs a 440 Hz tone at volume 128 once, then yields every
// frame, so the audio registers hold the tone until poked.
func toneConsole(t *testing.T) *Console {
	t.Helper()
	c, err := New(Params{Code: program(
		Instr{Op: OpMOVI, Rd: 1, Imm: AddrAudioF},
		Instr{Op: OpMOVI, Rd: 2, Imm: 24}, // 440 Hz
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpMOVI, Rd: 2, Imm: 128},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 1},
		Instr{Op: OpYIELD},
		Instr{Op: OpJMP, Imm: 0x0014}, // loop on the yield
	), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAudioPhaseMatchesPerSampleOscillator checks the oscillator against a
// sample-by-sample reference: frames alternate 367 and 368 samples (735 per
// two frames, 22050/60 on average), and the phase advances by the 16.16
// increment once per sample, wrapping as a uint32.
func TestAudioPhaseMatchesPerSampleOscillator(t *testing.T) {
	c := toneConsole(t)
	inc := freqTable[24] * 65536 / AudioRate
	var ref uint32
	samples := 0
	for f := 0; f < 20000; f++ { // long enough for the phase to wrap
		n := SamplesPerFrame + f%2
		for i := 0; i < n; i++ {
			ref += inc
		}
		samples += n
		c.StepFrame(0)
		if c.audio.phase != ref {
			t.Fatalf("frame %d: phase %#x, per-sample reference %#x", f, c.audio.phase, ref)
		}
		if c.audio.oddTick != (f%2 == 0) {
			t.Fatalf("frame %d: oddTick %v", f, c.audio.oddTick)
		}
	}
	if samples != 10000*735 {
		t.Errorf("20000 frames spanned %d samples, want %d", samples, 10000*735)
	}
	if uint64(inc)*uint64(samples) < 1<<32 {
		t.Errorf("the phase never wrapped; run more frames")
	}
}

// TestSilenceWhenVolumeZero checks that muting the voice resets the phase,
// and that the oddTick alternation goes on through silence.
func TestSilenceWhenVolumeZero(t *testing.T) {
	c := toneConsole(t)
	c.StepFrame(0)
	c.StepFrame(0)
	if c.audio.phase == 0 {
		t.Fatal("a tone left the phase at zero")
	}
	c.mem[AddrAudioV] = 0
	c.StepFrame(0)
	if c.audio.phase != 0 {
		t.Errorf("muted console kept phase %#x", c.audio.phase)
	}
	if !c.audio.oddTick {
		t.Error("oddTick stopped alternating in silence")
	}
}

func TestRenderASCIIAndImage(t *testing.T) {
	c := newScribbler(t, 11)
	for i := 0; i < 20; i++ {
		c.StepFrame(0xFFFF)
	}
	art := c.RenderASCII(2)
	if len(art) != (ScreenW/2+1)*(ScreenH/2) {
		t.Errorf("ascii render length %d unexpected", len(art))
	}
	img := c.Image()
	if img.Bounds().Dx() != ScreenW || img.Bounds().Dy() != ScreenH {
		t.Errorf("image bounds %v", img.Bounds())
	}
}

func TestDisassembleKnownForms(t *testing.T) {
	cases := map[string]Instr{
		"nop":                       {Op: OpNOP},
		"movi r1, 42":               {Op: OpMOVI, Rd: 1, Imm: 42},
		"mov r2, r3":                {Op: OpMOV, Rd: 2, Ra: 3},
		"add r1, r2, r3":            {Op: OpADD, Rd: 1, Ra: 2, Rb: 3, Imm: 3},
		"addi r1, r2, -1":           {Op: OpADDI, Rd: 1, Ra: 2, Imm: 0xFFFF},
		"ldb r4, [r5+8]":            {Op: OpLDB, Rd: 4, Ra: 5, Imm: 8},
		"stw r4, [r5]":              {Op: OpSTW, Rd: 4, Ra: 5, Imm: 0},
		"jmp 0x0010":                {Op: OpJMP, Imm: 0x10},
		"jr r7":                     {Op: OpJR, Ra: 7},
		"beq r1, r2, 0x0020":        {Op: OpBEQ, Rd: 1, Ra: 2, Imm: 0x20},
		"push r9":                   {Op: OpPUSH, Rd: 9},
		"rand r3":                   {Op: OpRAND, Rd: 3},
		"sys r1, 7":                 {Op: OpSYS, Rd: 1, Imm: 7},
		"db 0xEE, 0x00, 0x00, 0x00": {Op: 0xEE},
	}
	for want, in := range cases {
		if got := Disassemble(in); got != want {
			t.Errorf("Disassemble(%+v) = %q, want %q", in, got, want)
		}
	}
}

func TestDisassembleCode(t *testing.T) {
	code := program(Instr{Op: OpMOVI, Rd: 1, Imm: 5}, Instr{Op: OpYIELD})
	out := DisassembleCode(code, 0x100)
	want := "0x0100: movi r1, 5\n0x0104: yield\n"
	if out != want {
		t.Errorf("DisassembleCode = %q, want %q", out, want)
	}
}
