package vm

import (
	"testing"
)

// program assembles instructions (already encoded) into a code image.
func program(instrs ...Instr) []byte {
	code := make([]byte, 0, len(instrs)*4)
	for _, in := range instrs {
		e := in.Encode()
		code = append(code, e[:]...)
	}
	return code
}

// boot creates a console running code at 0 with entry 0.
func boot(t *testing.T, code []byte) *Console {
	t.Helper()
	c, err := New(Params{Code: code, Seed: 12345})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.EnableDebugLog()
	return c
}

// run1 boots the program, steps one frame with the given input and returns
// the console.
func run1(t *testing.T, input uint16, instrs ...Instr) *Console {
	t.Helper()
	c := boot(t, program(instrs...))
	c.StepFrame(input)
	return c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instr{
		{Op: OpMOVI, Rd: 3, Imm: 0xBEEF},
		{Op: OpADD, Rd: 15, Ra: 7, Imm: 0x0009, Rb: 9},
		{Op: OpBEQ, Rd: 1, Ra: 2, Imm: 0x1234},
		{Op: OpLDW, Rd: 14, Ra: 15, Imm: 0xFFFC},
	}
	for _, in := range cases {
		e := in.Encode()
		got := Decode(e[0], e[1], e[2], e[3])
		want := in
		want.Rb = byte(want.Imm & 0x0F) // Rb always mirrors the imm low nibble
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestMOVIAndSignExtension(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0xFFFF}, // -1
		Instr{Op: OpMOVI, Rd: 2, Imm: 42},
		Instr{Op: OpYIELD},
	)
	if c.Reg(1) != 0xFFFFFFFF {
		t.Errorf("r1 = %#x, want 0xFFFFFFFF (sign extension)", c.Reg(1))
	}
	if c.Reg(2) != 42 {
		t.Errorf("r2 = %d, want 42", c.Reg(2))
	}
}

func TestMOVHIBuilds32BitConstant(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0x5678},
		Instr{Op: OpMOVHI, Rd: 1, Imm: 0x1234},
		Instr{Op: OpYIELD},
	)
	if c.Reg(1) != 0x12345678 {
		t.Errorf("r1 = %#x, want 0x12345678", c.Reg(1))
	}
}

func TestR0HardwiredZero(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 0, Imm: 99},
		Instr{Op: OpMOVI, Rd: 1, Imm: 7},
		Instr{Op: OpADD, Rd: 2, Ra: 1, Rb: 0, Imm: 0},
		Instr{Op: OpYIELD},
	)
	if c.Reg(0) != 0 {
		t.Errorf("r0 = %d, want 0", c.Reg(0))
	}
	if c.Reg(2) != 7 {
		t.Errorf("r2 = %d, want 7", c.Reg(2))
	}
}

func TestALUOps(t *testing.T) {
	tests := []struct {
		name string
		op   byte
		a, b uint32
		want uint32
	}{
		{"add", OpADD, 5, 3, 8},
		{"add-wrap", OpADD, 0xFFFFFFFF, 1, 0},
		{"sub", OpSUB, 5, 3, 2},
		{"sub-borrow", OpSUB, 3, 5, 0xFFFFFFFE},
		{"mul", OpMUL, 7, 6, 42},
		{"div", OpDIV, 42, 6, 7},
		{"div-negative", OpDIV, uint32(0xFFFFFFF6), 5, uint32(0xFFFFFFFF)}, // -10/5 = -2
		{"div-zero", OpDIV, 10, 0, 0},
		{"mod", OpMOD, 43, 6, 1},
		{"mod-zero", OpMOD, 10, 0, 0},
		{"and", OpAND, 0b1100, 0b1010, 0b1000},
		{"or", OpOR, 0b1100, 0b1010, 0b1110},
		{"xor", OpXOR, 0b1100, 0b1010, 0b0110},
		{"shl", OpSHL, 1, 4, 16},
		{"shl-mask", OpSHL, 1, 33, 2}, // count & 31
		{"shr", OpSHR, 0x80000000, 31, 1},
		{"sar", OpSAR, 0x80000000, 31, 0xFFFFFFFF},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := boot(t, program(
				Instr{Op: OpYIELD}, // frame 0: registers poked below
				Instr{Op: tc.op, Rd: 3, Ra: 1, Rb: 2, Imm: 2},
				Instr{Op: OpYIELD},
			))
			c.StepFrame(0)
			c.regs[1], c.regs[2] = tc.a, tc.b
			c.StepFrame(0)
			if tc.name == "div-negative" {
				// -10/5 is -2.
				if int32(c.Reg(3)) != -2 {
					t.Fatalf("r3 = %d, want -2", int32(c.Reg(3)))
				}
				return
			}
			if c.Reg(3) != tc.want {
				t.Errorf("r3 = %#x, want %#x", c.Reg(3), tc.want)
			}
		})
	}
}

func TestImmediateALUOps(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 100},
		Instr{Op: OpADDI, Rd: 2, Ra: 1, Imm: 0xFFFF}, // +(-1)
		Instr{Op: OpMULI, Rd: 3, Ra: 1, Imm: 3},
		Instr{Op: OpANDI, Rd: 4, Ra: 1, Imm: 0x6},
		Instr{Op: OpORI, Rd: 5, Ra: 1, Imm: 0x3},
		Instr{Op: OpXORI, Rd: 6, Ra: 1, Imm: 0xFF},
		Instr{Op: OpSHLI, Rd: 7, Ra: 1, Imm: 2},
		Instr{Op: OpSHRI, Rd: 8, Ra: 1, Imm: 2},
		Instr{Op: OpDIVI, Rd: 9, Ra: 1, Imm: 7},
		Instr{Op: OpMODI, Rd: 10, Ra: 1, Imm: 7},
		Instr{Op: OpSARI, Rd: 11, Ra: 1, Imm: 1},
		Instr{Op: OpYIELD},
	)
	want := map[int]uint32{2: 99, 3: 300, 4: 4, 5: 103, 6: 155, 7: 400, 8: 25, 9: 14, 10: 2, 11: 50}
	for r, w := range want {
		if c.Reg(r) != w {
			t.Errorf("r%d = %d, want %d", r, c.Reg(r), w)
		}
	}
}

func TestLoadStoreWidths(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0x2000}, // base address
		Instr{Op: OpMOVI, Rd: 2, Imm: 0x5678},
		Instr{Op: OpMOVHI, Rd: 2, Imm: 0x1234}, // r2 = 0x12345678
		Instr{Op: OpSTW, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpLDB, Rd: 3, Ra: 1, Imm: 0},
		Instr{Op: OpLDB, Rd: 4, Ra: 1, Imm: 3},
		Instr{Op: OpLDH, Rd: 5, Ra: 1, Imm: 0},
		Instr{Op: OpLDH, Rd: 6, Ra: 1, Imm: 2},
		Instr{Op: OpLDW, Rd: 7, Ra: 1, Imm: 0},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 8},
		Instr{Op: OpLDW, Rd: 8, Ra: 1, Imm: 8},
		Instr{Op: OpSTH, Rd: 2, Ra: 1, Imm: 12},
		Instr{Op: OpLDW, Rd: 9, Ra: 1, Imm: 12},
		Instr{Op: OpYIELD},
	)
	checks := map[int]uint32{
		3: 0x78, 4: 0x12, // little endian bytes
		5: 0x5678, 6: 0x1234,
		7: 0x12345678,
		8: 0x78,   // STB stored one byte
		9: 0x5678, // STH stored two bytes
	}
	for r, w := range checks {
		if c.Reg(r) != w {
			t.Errorf("r%d = %#x, want %#x", r, c.Reg(r), w)
		}
	}
}

func TestNegativeMemOffset(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0x2004},
		Instr{Op: OpMOVI, Rd: 2, Imm: 0xAB},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 0xFFFC}, // [r1-4] = 0x2000
		Instr{Op: OpYIELD},
	)
	if got := c.Peek(0x2000); got != 0xAB {
		t.Errorf("mem[0x2000] = %#x, want 0xAB", got)
	}
}

func TestBranchesAndJumps(t *testing.T) {
	// Count down from 5 in a loop; r2 accumulates iterations.
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 5},
		Instr{Op: OpMOVI, Rd: 2, Imm: 0},
		// loop @ 0x0008:
		Instr{Op: OpADDI, Rd: 2, Ra: 2, Imm: 1},
		Instr{Op: OpADDI, Rd: 1, Ra: 1, Imm: 0xFFFF}, // r1--
		Instr{Op: OpBNE, Rd: 1, Ra: 0, Imm: 0x0008},
		Instr{Op: OpYIELD},
	)
	if c.Reg(2) != 5 {
		t.Errorf("loop ran %d times, want 5", c.Reg(2))
	}
}

func TestSignedVsUnsignedBranches(t *testing.T) {
	// r1 = -1, r2 = 1. BLT (signed) taken; BLTU (unsigned) not taken.
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0xFFFF}, // -1
		Instr{Op: OpMOVI, Rd: 2, Imm: 1},
		Instr{Op: OpMOVI, Rd: 3, Imm: 0},
		Instr{Op: OpBLT, Rd: 1, Ra: 2, Imm: 0x0014}, // skip next
		Instr{Op: OpJMP, Imm: 0x0018},               // (not executed)
		Instr{Op: OpMOVI, Rd: 3, Imm: 1},            // 0x0014: signed-taken marker
		// 0x0018:
		Instr{Op: OpMOVI, Rd: 4, Imm: 0},
		Instr{Op: OpBLTU, Rd: 1, Ra: 2, Imm: 0x0024}, // 0xFFFFFFFF < 1 unsigned? no
		Instr{Op: OpMOVI, Rd: 4, Imm: 2},             // executed
		// 0x0024:
		Instr{Op: OpYIELD},
	)
	if c.Reg(3) != 1 {
		t.Errorf("BLT signed: r3 = %d, want 1", c.Reg(3))
	}
	if c.Reg(4) != 2 {
		t.Errorf("BLTU unsigned: r4 = %d, want 2", c.Reg(4))
	}
}

func TestCallRetAndStack(t *testing.T) {
	// main: r1=3; call sub; r2 must be 30 after return.
	// sub @0x0010: r2 = r1*10; ret
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 3},
		Instr{Op: OpCALL, Imm: 0x0010},
		Instr{Op: OpYIELD},
		Instr{Op: OpNOP},
		Instr{Op: OpMULI, Rd: 2, Ra: 1, Imm: 10}, // 0x0010
		Instr{Op: OpRET},
	)
	if c.Reg(2) != 30 {
		t.Errorf("r2 = %d, want 30 (call/ret)", c.Reg(2))
	}
	if c.Reg(RegSP) != InitialSP {
		t.Errorf("sp = %#x, want %#x (balanced)", c.Reg(RegSP), InitialSP)
	}
}

func TestPushPop(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 111},
		Instr{Op: OpMOVI, Rd: 2, Imm: 222},
		Instr{Op: OpPUSH, Rd: 1},
		Instr{Op: OpPUSH, Rd: 2},
		Instr{Op: OpPOP, Rd: 3},
		Instr{Op: OpPOP, Rd: 4},
		Instr{Op: OpYIELD},
	)
	if c.Reg(3) != 222 || c.Reg(4) != 111 {
		t.Errorf("pop order r3=%d r4=%d, want 222/111 (LIFO)", c.Reg(3), c.Reg(4))
	}
}

func TestPadMMIOReflectsInput(t *testing.T) {
	c := run1(t, 0xA35C,
		Instr{Op: OpMOVI, Rd: 1, Imm: AddrPad0},
		Instr{Op: OpLDB, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpLDB, Rd: 3, Ra: 1, Imm: 1},
		Instr{Op: OpYIELD},
	)
	if c.Reg(2) != 0x5C {
		t.Errorf("pad0 = %#x, want 0x5C", c.Reg(2))
	}
	if c.Reg(3) != 0xA3 {
		t.Errorf("pad1 = %#x, want 0xA3", c.Reg(3))
	}
}

func TestPadAndFrameAreReadOnly(t *testing.T) {
	c := run1(t, 0x0102,
		Instr{Op: OpMOVI, Rd: 1, Imm: AddrPad0},
		Instr{Op: OpMOVI, Rd: 2, Imm: 0xFF},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 1},
		Instr{Op: OpSTH, Rd: 2, Ra: 1, Imm: 2}, // frame counter
		Instr{Op: OpYIELD},
	)
	if c.Peek(AddrPad0) != 0x02 || c.Peek(AddrPad1) != 0x01 {
		t.Error("pad MMIO was overwritten by the program")
	}
	if c.Peek(AddrFrame) != 0 {
		t.Error("frame counter was overwritten by the program")
	}
}

func TestFrameCounterVisibleToProgram(t *testing.T) {
	// Each frame, copy the frame counter into r5 and yield.
	code := program(
		Instr{Op: OpMOVI, Rd: 1, Imm: AddrFrame},
		Instr{Op: OpLDH, Rd: 5, Ra: 1, Imm: 0},
		Instr{Op: OpYIELD},
		Instr{Op: OpJMP, Imm: 0}, // restart each frame
	)
	c := boot(t, code)
	for i := 0; i < 5; i++ {
		c.StepFrame(0)
	}
	// Frame index seen during the last StepFrame is 4.
	if c.Reg(5) != 4 {
		t.Errorf("r5 = %d, want 4", c.Reg(5))
	}
	if c.FrameCount() != 5 {
		t.Errorf("FrameCount = %d, want 5", c.FrameCount())
	}
}

func TestHaltFreezesConsole(t *testing.T) {
	c := boot(t, program(
		Instr{Op: OpADDI, Rd: 1, Ra: 1, Imm: 1},
		Instr{Op: OpHALT},
	))
	c.StepFrame(0)
	if !c.Halted() {
		t.Fatal("console not halted")
	}
	h := c.StateHash()
	frames := c.FrameCount()
	c.StepFrame(0xFFFF)
	if c.StateHash() != h || c.FrameCount() != frames {
		t.Error("halted console changed state on StepFrame")
	}
}

func TestIllegalOpcodeHalts(t *testing.T) {
	c := run1(t, 0, Instr{Op: 0xEE})
	if !c.Halted() {
		t.Error("illegal opcode did not halt")
	}
}

func TestCycleBudgetEndsFrame(t *testing.T) {
	// Infinite loop: jmp 0. The frame must still terminate.
	c := boot(t, program(Instr{Op: OpJMP, Imm: 0}))
	c.StepFrame(0)
	if c.FrameCount() != 1 {
		t.Fatal("frame did not end despite infinite loop")
	}
	if c.Overruns() != 1 {
		t.Errorf("overruns = %d, want 1", c.Overruns())
	}
}

func TestRANDDeterministicPerSeed(t *testing.T) {
	prog := program(
		Instr{Op: OpRAND, Rd: 1},
		Instr{Op: OpRAND, Rd: 2},
		Instr{Op: OpYIELD},
	)
	a, err := New(Params{Code: prog, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Params{Code: prog, Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Params{Code: prog, Seed: 778})
	if err != nil {
		t.Fatal(err)
	}
	a.StepFrame(0)
	b.StepFrame(0)
	other.StepFrame(0)
	if a.Reg(1) != b.Reg(1) || a.Reg(2) != b.Reg(2) {
		t.Error("same seed produced different RAND sequences")
	}
	if a.Reg(1) == other.Reg(1) && a.Reg(2) == other.Reg(2) {
		t.Error("different seeds produced identical RAND sequences")
	}
	if a.Reg(1) == a.Reg(2) {
		t.Error("consecutive RAND values identical; LFSR stuck")
	}
}

func TestZeroSeedDoesNotLockLFSR(t *testing.T) {
	c, err := New(Params{Code: program(Instr{Op: OpRAND, Rd: 1}, Instr{Op: OpYIELD}), Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	c.StepFrame(0)
	if c.Reg(1) == 0 {
		t.Error("zero seed produced zero RAND; LFSR locked up")
	}
}

func TestSYSDebugLog(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 42},
		Instr{Op: OpSYS, Rd: 1, Imm: 7},
		Instr{Op: OpYIELD},
	)
	log := c.DebugLog()
	if len(log) != 1 {
		t.Fatalf("debug log has %d events, want 1", len(log))
	}
	if log[0].Code != 7 || log[0].Value != 42 || log[0].Frame != 0 {
		t.Errorf("event = %+v, want code 7 value 42 frame 0", log[0])
	}
}

func TestCodeTooLargeRejected(t *testing.T) {
	if _, err := New(Params{Code: make([]byte, VRAMBase+1)}); err == nil {
		t.Error("oversized code accepted")
	}
	if _, err := New(Params{Code: make([]byte, 16), LoadAddr: VRAMBase - 8}); err == nil {
		t.Error("code overlapping VRAM accepted")
	}
}

func TestVRAMWriteAndPixel(t *testing.T) {
	c := run1(t, 0,
		Instr{Op: OpMOVI, Rd: 1, Imm: 0xC000}, // VRAM base; pixel (0,0)
		Instr{Op: OpMOVI, Rd: 2, Imm: 5},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 129}, // pixel (1,1)
		Instr{Op: OpYIELD},
	)
	if c.Pixel(0, 0) != 5 {
		t.Errorf("pixel(0,0) = %d, want 5", c.Pixel(0, 0))
	}
	if c.Pixel(1, 1) != 5 {
		t.Errorf("pixel(1,1) = %d, want 5", c.Pixel(1, 1))
	}
	if c.Pixel(-1, 0) != 0 || c.Pixel(0, ScreenH) != 0 {
		t.Error("out-of-range Pixel must read 0")
	}
	img := c.Image()
	if b := img.Bounds(); b.Dx() != ScreenW || b.Dy() != ScreenH || img.RGBAAt(0, 0) != Palette[5] {
		t.Errorf("image wrong: bounds %v, (0,0) = %v, want %v", b, img.RGBAAt(0, 0), Palette[5])
	}
}
