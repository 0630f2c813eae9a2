package vm

import (
	"testing"
	"testing/quick"
)

// Edge-of-address-space and structural invariants.

func TestMemoryAccessWrapsAtTop(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0xFFFE},
		Instr{Op: OpMOVI, Rd: 2, Imm: 0x1234},
		Instr{Op: OpMOVHI, Rd: 2, Imm: 0x5678}, // r2 = 0x56781234
		Instr{Op: OpSTW, Rd: 2, Ra: 1, Imm: 0}, // straddles 0xFFFE..0x0001
		Instr{Op: OpLDW, Rd: 3, Ra: 1, Imm: 0},
		Instr{Op: OpYIELD},
	)
	if c.Reg(3) != 0x56781234 {
		t.Errorf("wrapped load = %#x, want 0x56781234", c.Reg(3))
	}
	// Bytes landed at 0xFFFE, 0xFFFF, 0x0000, 0x0001 (little endian) —
	// but 0x0000/0x0001 hold the running program, which we overwrote;
	// the console must keep running (next fetch decodes whatever is
	// there) and, at worst, halt deterministically.
	if c.Peek(0xFFFE) != 0x34 || c.Peek(0xFFFF) != 0x12 {
		t.Errorf("top bytes = %#x %#x", c.Peek(0xFFFE), c.Peek(0xFFFF))
	}
}

// TestHalfwordLoadWrapsAtTop runs LDH at 0xFFFF, the one address whose
// halfword straddles the top of memory: the high byte comes from 0x0000.
func TestHalfwordLoadWrapsAtTop(t *testing.T) {
	c := boot(t, program(
		Instr{Op: OpMOVI, Rd: 1, Imm: 0xFFFF}, // r1 = -1, so r1+0 is 0xFFFF
		Instr{Op: OpLDH, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpLDH, Rd: 3, Ra: 1, Imm: 0xFFFF}, // 0xFFFE: the in-range path
		Instr{Op: OpYIELD},
	))
	c.mem[0xFFFE], c.mem[0xFFFF] = 0xCD, 0xAB
	c.StepFrame(0)
	if want := 0xAB | uint32(c.Peek(0x0000))<<8; c.Reg(2) != want {
		t.Errorf("halfword at 0xFFFF = %#x, want %#x (0xFFFF low, 0x0000 high)", c.Reg(2), want)
	}
	if c.Reg(3) != 0xABCD {
		t.Errorf("halfword at 0xFFFE = %#x, want 0xabcd", c.Reg(3))
	}
}

func TestStackWrapsWithoutPanic(t *testing.T) {
	// Pop past the initial SP and push past zero: must not panic, only
	// wrap (deterministically).
	c := boot(t, program(
		Instr{Op: OpPOP, Rd: 1},
		Instr{Op: OpPOP, Rd: 2},
		Instr{Op: OpPUSH, Rd: 1},
		Instr{Op: OpYIELD},
	))
	c.StepFrame(0)
	// Two pops (+8) then one push (-4): SP nets +4 above its reset value,
	// into the VRAM region — legal, deterministic, no trap.
	if c.Reg(RegSP) != InitialSP+4 {
		t.Errorf("sp = %#x after 2 pops + 1 push from %#x, want %#x", c.Reg(RegSP), InitialSP, InitialSP+4)
	}
}

func TestDeepCallNesting(t *testing.T) {
	// A recursive countdown: call depth 64 must work within RAM.
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 64},
		Instr{Op: OpCALL, Imm: 0x000C},
		Instr{Op: OpYIELD},
		// recurse @ 0x000C:
		Instr{Op: OpBEQ, Rd: 1, Ra: 0, Imm: 0x001C},
		Instr{Op: OpADDI, Rd: 1, Ra: 1, Imm: 0xFFFF},
		Instr{Op: OpCALL, Imm: 0x000C},
		// 0x0018: unwind
		Instr{Op: OpRET},
		// 0x001C:
		Instr{Op: OpRET},
	)
	if c.Reg(1) != 0 {
		t.Errorf("r1 = %d after recursion, want 0", c.Reg(1))
	}
	if c.Reg(RegSP) != InitialSP {
		t.Errorf("sp = %#x, want balanced %#x", c.Reg(RegSP), InitialSP)
	}
}

func TestFrequencyTableMonotonic(t *testing.T) {
	for i := 1; i < len(freqTable); i++ {
		if freqTable[i] <= freqTable[i-1] {
			t.Fatalf("freqTable[%d]=%d not above freqTable[%d]=%d", i, freqTable[i], i-1, freqTable[i-1])
		}
	}
	// A2 and A4 anchor the chromatic scale.
	if freqTable[0] != 110 || freqTable[24] != 440 {
		t.Errorf("anchors: f[0]=%d f[24]=%d, want 110/440", freqTable[0], freqTable[24])
	}
}

// Property: the disassembler output of any defined-opcode instruction is
// stable text, and Decode(Encode(x)) preserves execution-relevant fields.
func TestPropertyEncodeDecodeExecFields(t *testing.T) {
	ops := make([]byte, 0, len(opTable))
	for op := range opTable {
		ops = append(ops, op)
	}
	f := func(opIdx byte, rd, ra byte, imm uint16) bool {
		in := Instr{
			Op:  ops[int(opIdx)%len(ops)],
			Rd:  rd & 0x0F,
			Ra:  ra & 0x0F,
			Imm: imm,
		}
		e := in.Encode()
		got := Decode(e[0], e[1], e[2], e[3])
		return got.Op == in.Op && got.Rd == in.Rd && got.Ra == in.Ra &&
			got.Imm == in.Imm && got.Rb == byte(imm&0x0F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: StepFrame never panics for arbitrary code images — the console
// must contain any byte soup deterministically (illegal opcodes halt).
func TestPropertyArbitraryCodeNeverPanics(t *testing.T) {
	f := func(code []byte, input uint16) bool {
		if len(code) > 4096 {
			code = code[:4096]
		}
		c, err := New(Params{Code: code, Seed: 7})
		if err != nil {
			return true // oversized images are rejected, fine
		}
		for i := 0; i < 3; i++ {
			c.StepFrame(input)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: two consoles fed the same arbitrary code and inputs stay
// hash-identical — determinism holds even for garbage programs.
func TestPropertyGarbageCodeDeterministic(t *testing.T) {
	f := func(code []byte, inputs []uint16) bool {
		if len(code) > 2048 {
			code = code[:2048]
		}
		if len(inputs) > 16 {
			inputs = inputs[:16]
		}
		a, errA := New(Params{Code: code, Seed: 3})
		b, errB := New(Params{Code: code, Seed: 3})
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTraceObservesExecution(t *testing.T) {
	c := boot(t, program(
		Instr{Op: OpMOVI, Rd: 1, Imm: 5},
		Instr{Op: OpADDI, Rd: 1, Ra: 1, Imm: 1},
		Instr{Op: OpYIELD},
	))
	var events []TraceEvent
	c.SetTrace(func(e TraceEvent) { events = append(events, e) })
	c.StepFrame(0)
	if len(events) != 3 {
		t.Fatalf("traced %d instructions, want 3", len(events))
	}
	if events[0].PC != 0 || events[0].Instr.Op != OpMOVI {
		t.Errorf("event 0: %+v", events[0])
	}
	if events[2].Instr.Op != OpYIELD || events[2].Cycle != 2 {
		t.Errorf("event 2: %+v", events[2])
	}
	if c.CyclesLastFrame() != 2 {
		// YIELD stops the loop at cycle index 2 (ran counts completed
		// iterations before the stop).
		t.Errorf("CyclesLastFrame = %d, want 2", c.CyclesLastFrame())
	}
	// Tracing must not perturb state.
	clone := boot(t, program(
		Instr{Op: OpMOVI, Rd: 1, Imm: 5},
		Instr{Op: OpADDI, Rd: 1, Ra: 1, Imm: 1},
		Instr{Op: OpYIELD},
	))
	clone.StepFrame(0)
	if clone.StateHash() != c.StateHash() {
		t.Error("tracing changed the machine state")
	}
	c.SetTrace(nil)
	c.StepFrame(0)
	if len(events) != 3 {
		t.Error("trace fired after removal")
	}
}

func TestGamesFitWellWithinCycleBudget(t *testing.T) {
	// Every shipped game must leave ample headroom in the 100k budget,
	// so emulation never becomes the frame-time bottleneck.
	// (Checked here against the raw consoles; the games package has the
	// behavioural tests.)
	progs := map[string][]byte{"scribbler": scribbler()}
	for name, code := range progs {
		c, err := New(Params{Code: code, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0
		for f := 0; f < 120; f++ {
			c.StepFrame(uint16(f))
			if c.CyclesLastFrame() > worst {
				worst = c.CyclesLastFrame()
			}
		}
		if worst > CyclesPerFrame/2 {
			t.Errorf("%s worst frame %d cycles, wants headroom below %d", name, worst, CyclesPerFrame/2)
		}
	}
}
