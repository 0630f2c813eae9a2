package vm

import (
	"bytes"
	"testing"
)

// settle drains the boot-time "everything dirty" state through both
// incremental consumers so a test can observe exactly the pages its own
// stores mark.
func settle(c *Console) {
	c.StateHash()
	c.AppendSaveBase(nil)
}

func TestStoreMarksDirtyPages(t *testing.T) {
	c := boot(t, program(
		Instr{Op: OpMOVI, Rd: 1, Imm: 0x4000},
		Instr{Op: OpMOVI, Rd: 2, Imm: 0x55},
		Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 0},
		Instr{Op: OpSTH, Rd: 2, Ra: 1, Imm: 0x200},
		Instr{Op: OpSTW, Rd: 2, Ra: 1, Imm: 0x3FE}, // straddles 0x43FE-0x4401
		Instr{Op: OpYIELD},
	))
	settle(c)
	c.StepFrame(0)
	for _, p := range []int{0x40, 0x42, 0x43, 0x44} {
		if !c.dirty.Test(p) {
			t.Errorf("page %#x not marked dirty", p)
		}
	}
	if !c.dirty.Test(int(AddrPad0) >> pageShift) {
		t.Error("MMIO page not marked by the input latch")
	}
	if c.dirty.Test(0x41) {
		t.Error("untouched page 0x41 marked dirty")
	}
}

func TestWrappingStoreMarksBothEnds(t *testing.T) {
	c := boot(t, program(
		Instr{Op: OpMOVI, Rd: 1, Imm: 0xFFFF},
		Instr{Op: OpMOVI, Rd: 2, Imm: 0x7777},
		Instr{Op: OpSTH, Rd: 2, Ra: 1, Imm: 0}, // bytes 0xFFFF and 0x0000
		Instr{Op: OpYIELD},
	))
	settle(c)
	c.StepFrame(0)
	if !c.dirty.Test(0xFF) || !c.dirty.Test(0x00) {
		t.Error("wrapping halfword store did not mark both end pages")
	}
	if c.Peek(0xFFFF) != 0x77 || c.Peek(0x0000) != 0x77 {
		t.Error("wrapping halfword store bytes misplaced")
	}
}

// blitProgram stores x, y, w, h, color into the blitter registers and fires
// it, then yields.
func blitProgram(x, y, w, h, col uint16) []byte {
	return program(
		Instr{Op: OpMOVI, Rd: 8, Imm: AddrBlitX},
		Instr{Op: OpMOVI, Rd: 1, Imm: x},
		Instr{Op: OpMOVI, Rd: 2, Imm: y},
		Instr{Op: OpMOVI, Rd: 3, Imm: w},
		Instr{Op: OpMOVI, Rd: 4, Imm: h},
		Instr{Op: OpMOVI, Rd: 5, Imm: col},
		Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 0},
		Instr{Op: OpSTB, Rd: 2, Ra: 8, Imm: 1},
		Instr{Op: OpSTB, Rd: 3, Ra: 8, Imm: 2},
		Instr{Op: OpSTB, Rd: 4, Ra: 8, Imm: 3},
		Instr{Op: OpSTB, Rd: 5, Ra: 8, Imm: 4},
		Instr{Op: OpSTB, Rd: 0, Ra: 8, Imm: 5}, // go
		Instr{Op: OpYIELD},
	)
}

func TestBlitFillsAndClips(t *testing.T) {
	c := boot(t, blitProgram(10, 90, 20, 20, 3))
	c.StepFrame(0)
	for y := 0; y < ScreenH; y++ {
		for x := 0; x < ScreenW; x++ {
			want := byte(0)
			if x >= 10 && x < 30 && y >= 90 {
				want = 3 // rows past 95 are clipped away
			}
			if got := c.Pixel(x, y); got != want {
				t.Fatalf("pixel (%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
	// 12 setup instructions plus the blit's deterministic surcharge; the
	// terminating YIELD is not counted.
	if want := 12 + blitCost(20, 20); c.CyclesLastFrame() != want {
		t.Errorf("blit frame ran %d cycles, want %d", c.CyclesLastFrame(), want)
	}
}

func TestBlitOffscreenIsNoOp(t *testing.T) {
	c := boot(t, blitProgram(200, 10, 50, 4, 7))
	c.StepFrame(0)
	for y := 0; y < ScreenH; y++ {
		for x := 0; x < ScreenW; x++ {
			if c.Pixel(x, y) != 0 {
				t.Fatalf("offscreen blit painted pixel (%d,%d)", x, y)
			}
		}
	}
	if want := 12 + blitCost(50, 4); c.CyclesLastFrame() != want {
		t.Errorf("offscreen blit ran %d cycles, want %d (cost charged pre-clip)", c.CyclesLastFrame(), want)
	}
}

func TestBlitMarksDirtyPages(t *testing.T) {
	c := boot(t, blitProgram(0, 4, 128, 2, 9))
	settle(c)
	c.StepFrame(0)
	// Rows 4-5 live at VRAMBase+512..VRAMBase+767: page 0xC2.
	if !c.dirty.Test(0xC2) {
		t.Error("blit did not mark the filled page")
	}
	if c.dirty.Test(0xC4) {
		t.Error("blit marked a page past the fill")
	}
}

// scribblerProg is a program that writes a counter to LFSR-random addresses as
// fast as it can — every frame overruns the cycle budget and scribbles over
// hundreds of pages, including the MMIO page.
var scribblerProg = program(
	Instr{Op: OpRAND, Rd: 1},
	Instr{Op: OpSTB, Rd: 2, Ra: 1, Imm: 0},
	Instr{Op: OpADDI, Rd: 2, Ra: 2, Imm: 1},
	Instr{Op: OpJMP, Imm: 0},
)

func TestIncrementalHashMatchesFullRecompute(t *testing.T) {
	c := boot(t, scribblerProg)
	for frame := 0; frame < 8; frame++ {
		c.StepFrame(uint16(frame * 7))
		got := c.StateHash()
		// A console restored from the full image recomputes every page
		// digest from scratch.
		fresh, err := New(Params{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Restore(c.Save()); err != nil {
			t.Fatal(err)
		}
		if want := fresh.StateHash(); got != want {
			t.Fatalf("frame %d: incremental hash %016x != full recompute %016x", frame, got, want)
		}
	}
}

func TestDeltaChainMatchesFullSave(t *testing.T) {
	c := boot(t, scribblerProg)
	c.StepFrame(1)
	image := c.AppendSaveBase(nil)
	if !bytes.Equal(image, c.Save()) {
		t.Fatal("base capture differs from a full save")
	}
	for frame := 0; frame < 6; frame++ {
		c.StepFrame(uint16(frame))
		if frame == 3 {
			// A plain save mid-chain (late joiner) must not disturb the
			// delta chain.
			_ = c.Save()
		}
		delta := c.AppendSaveDelta(nil)
		if err := ApplyDeltaToImage(image, delta); err != nil {
			t.Fatalf("frame %d: apply: %v", frame, err)
		}
		if full := c.Save(); !bytes.Equal(image, full) {
			t.Fatalf("frame %d: materialized image differs from full save", frame)
		}
	}
}

// TestIncrementalPathsDoNotAllocate pins the per-frame digest and delta
// savestate at zero allocations once their buffers exist: the tier-1 twin
// of BenchmarkStateHashIncremental and BenchmarkSavestateDelta.
func TestIncrementalPathsDoNotAllocate(t *testing.T) {
	c := newScribbler(t, 1)
	c.StepFrame(0)
	buf := c.AppendSaveBase(nil)
	f := 0
	step := func() {
		f++
		c.StepFrame(uint16(f))
		c.StateHash()
		buf = c.AppendSaveDelta(buf[:0])
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("StepFrame + StateHash + AppendSaveDelta allocates %v per frame, want 0", allocs)
	}
}

func TestDeltaAfterQuietFrameIsSmall(t *testing.T) {
	c := boot(t, program(Instr{Op: OpYIELD}))
	c.StepFrame(0)
	c.AppendSaveBase(nil)
	c.StepFrame(0)
	delta := c.AppendSaveDelta(nil)
	// A frame that only latches input and runs YIELD touches two pages at
	// most (MMIO latch + nothing else); the delta must reflect that, not
	// ship anything near the 64 KiB full image.
	if len(delta) > deltaHeaderLen+2*(2+PageSize) {
		t.Errorf("quiet-frame delta is %d bytes", len(delta))
	}
}

func TestApplyDeltaRejectsCorrupt(t *testing.T) {
	c := boot(t, program(Instr{Op: OpYIELD}))
	image := c.AppendSaveBase(nil)
	c.StepFrame(0)
	delta := c.AppendSaveDelta(nil)

	if err := ApplyDeltaToImage(image[:10], delta); err == nil {
		t.Error("short image accepted")
	}
	if err := ApplyDeltaToImage(image, delta[:len(delta)-1]); err == nil {
		t.Error("truncated delta accepted")
	}
	bad := append([]byte(nil), delta...)
	bad[0] = 'X'
	if err := ApplyDeltaToImage(image, bad); err == nil {
		t.Error("bad magic accepted")
	}
	if len(delta) > deltaHeaderLen {
		bad = append([]byte(nil), delta...)
		bad[deltaHeaderLen] = 0xFF
		bad[deltaHeaderLen+1] = 0xFF // page 65535, out of range
		if err := ApplyDeltaToImage(image, bad); err == nil {
			t.Error("out-of-range page accepted")
		}
	}
}

func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{0x43, 0x21, 0x00, 0x00}, uint8(3)) // a lone STB, then garbage
	f.Add(scribblerProg, uint8(5))
	f.Fuzz(func(t *testing.T, code []byte, frames uint8) {
		if len(code) > VRAMBase {
			code = code[:VRAMBase]
		}
		c, err := New(Params{Code: code, Seed: 99})
		if err != nil {
			t.Skip()
		}
		c.StepFrame(0)
		image := c.AppendSaveBase(nil)
		n := int(frames%6) + 1
		for i := 0; i < n; i++ {
			c.StepFrame(uint16(i) * 257)
			delta := c.AppendSaveDelta(nil)
			if err := ApplyDeltaToImage(image, delta); err != nil {
				t.Fatalf("apply of self-produced delta: %v", err)
			}
		}
		if full := c.Save(); !bytes.Equal(image, full) {
			t.Fatal("base+deltas diverged from full save")
		}
	})
}

func FuzzApplyDeltaNeverPanics(f *testing.F) {
	c, _ := New(Params{})
	image := c.AppendSaveBase(nil)
	c.StepFrame(0)
	f.Add(c.AppendSaveDelta(nil))
	f.Add([]byte("RKSD"))
	f.Fuzz(func(t *testing.T, delta []byte) {
		img := append([]byte(nil), image...)
		// Arbitrary bytes must be rejected or applied cleanly, never panic.
		_ = ApplyDeltaToImage(img, delta)
	})
}
