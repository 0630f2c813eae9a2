package vm

import (
	"bytes"
	"fmt"
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

// uncachedHash is StateHash with no page cache and no shadow: pageDigest of
// every page straight from memory, folded with the header fields.
func uncachedHash(c *Console) uint64 {
	var pages [NumPages]uint64
	for p := range pages {
		pages[p] = pageDigest(c.mem[p<<pageShift : p<<pageShift+PageSize])
	}
	return c.digest(&pages)
}

func TestIncrementalHashMatchesFullRecompute(t *testing.T) {
	c := boot(t, scribblerProg)
	for frame := 0; frame < 8; frame++ {
		c.StepFrame(uint16(frame * 7))
		got := c.StateHash()
		if want := uncachedHash(c); got != want {
			t.Fatalf("frame %d: incremental hash %016x != uncached %016x", frame, got, want)
		}
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

// redrawProg clears the whole screen with the blitter every frame, then
// draws an 8x8 sprite at x = y = pad 0: most pages it marks end the frame
// with the bytes they started with, and when the sprite moves the pages it
// leaves return to all zeros.
var redrawProg = program(
	Instr{Op: OpMOVI, Rd: 8, Imm: AddrBlitX},
	Instr{Op: OpSTB, Rd: 0, Ra: 8, Imm: 0},
	Instr{Op: OpSTB, Rd: 0, Ra: 8, Imm: 1},
	Instr{Op: OpMOVI, Rd: 1, Imm: ScreenW},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 2},
	Instr{Op: OpMOVI, Rd: 1, Imm: ScreenH},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 3},
	Instr{Op: OpSTB, Rd: 0, Ra: 8, Imm: 4},
	Instr{Op: OpSTB, Rd: 0, Ra: 8, Imm: 5}, // clear
	Instr{Op: OpMOVI, Rd: 4, Imm: AddrPad0},
	Instr{Op: OpLDB, Rd: 1, Ra: 4, Imm: 0},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 0},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 1},
	Instr{Op: OpMOVI, Rd: 1, Imm: 8},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 2},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 3},
	Instr{Op: OpMOVI, Rd: 1, Imm: 5},
	Instr{Op: OpSTB, Rd: 1, Ra: 8, Imm: 4},
	Instr{Op: OpSTB, Rd: 0, Ra: 8, Imm: 5}, // sprite
	Instr{Op: OpYIELD},
	Instr{Op: OpJMP, Imm: 0},
)

// unchangedMarked counts the pages StateHash will find marked but equal to
// its shadow.
func unchangedMarked(c *Console) int {
	c.drainDirty()
	n := 0
	for p := 0; p < NumPages; p++ {
		lo := p << pageShift
		if c.hashDirty.Test(p) && bytes.Equal(c.mem[lo:lo+PageSize], c.hashShadow[lo:lo+PageSize]) {
			n++
		}
	}
	return n
}

// TestStateHashMatchesUncachedDigest checks the content-checked cache
// against uncachedHash after every path that changes memory: frames whose
// marked pages mostly end unchanged, Restore of an older image, a delta
// chain materialized and restored, and Poke.
func TestStateHashMatchesUncachedDigest(t *testing.T) {
	c := boot(t, redrawProg)
	check := func(what string) {
		t.Helper()
		if got, want := c.StateHash(), uncachedHash(c); got != want {
			t.Fatalf("%s: StateHash %016x != uncached %016x", what, got, want)
		}
	}
	var old, base []byte
	skipped := 0
	for f := 0; f < 40; f++ {
		c.StepFrame(uint16(f / 8 * 13)) // the sprite moves every 8th frame
		if f > 0 {
			skipped += unchangedMarked(c)
		}
		check(fmt.Sprintf("frame %d", f))
		switch f {
		case 10:
			old = c.Save()
		case 20:
			base = c.AppendSaveBase(nil)
		}
	}
	if skipped < 39*40 {
		t.Fatalf("only %d marked pages ended unchanged over 39 frames; the program does not exercise the shadow compare", skipped)
	}

	if err := c.Restore(old); err != nil {
		t.Fatal(err)
	}
	check("Restore of frame 10")

	// Replay frames 21.. from the base, capture a delta, and restore the
	// materialized image over the diverged console.
	other := boot(t, redrawProg)
	if err := other.Restore(base); err != nil {
		t.Fatal(err)
	}
	other.AppendSaveBase(nil)
	for f := 21; f < 30; f++ {
		other.StepFrame(uint16(f / 8 * 13))
	}
	image := append([]byte(nil), base...)
	if err := ApplyDeltaToImage(image, other.AppendSaveDelta(nil)); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(image); err != nil {
		t.Fatal(err)
	}
	check("Restore of a delta-patched image")
	if got, want := c.StateHash(), other.StateHash(); got != want {
		t.Fatalf("delta-patched console hash %016x != source %016x", got, want)
	}

	c.Poke(0x4321, c.Peek(0x4321)^0xA5)
	check("Poke")
	c.Poke(0x4321, c.Peek(0x4321)) // marked, unchanged
	check("Poke of the same value")
}

// TestMarkRangeMatchesPageLoop pins the word-mask markRange to marking each
// page in turn, across bitmap word boundaries.
func TestMarkRangeMatchesPageLoop(t *testing.T) {
	for _, r := range [][2]uint16{
		{0, 0}, {0, 0xFFFF}, {0x3F00, 0x40FF}, {0x3FFF, 0x4000}, {0x0100, 0x3EFF},
		{0x4000, 0x7FFF}, {0xC000, 0xEFFF}, {0xC280, 0xC2FF}, {0x1234, 0xBA98},
	} {
		c, err := New(Params{})
		if err != nil {
			t.Fatal(err)
		}
		c.dirty.Clear()
		c.markRange(r[0], r[1])
		want := c.dirty
		c.dirty.Clear()
		for p := int(r[0] >> pageShift); p <= int(r[1]>>pageShift); p++ {
			c.markAddr(uint16(p << pageShift))
		}
		if c.dirty != want {
			t.Errorf("markRange(%#04x, %#04x) = %x, want %x (one markAddr per page)", r[0], r[1], want, c.dirty)
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
