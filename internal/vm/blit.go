package vm

// mmioPage is the page index of the 0xF0xx device registers; any store into
// it takes the interpreter's slow path so MMIO semantics (read-only bytes,
// blit trigger) apply.
const mmioPage = AddrPad0 >> pageShift

// blitCost returns the extra instruction cycles charged for a w x h fill.
// It uses the raw register values (before clipping) so the cost of a blit is
// a pure function of machine state, independent of how much actually lands
// on screen.
func blitCost(w, h int) int { return 1 + (w*h)>>4 }

// blit runs the MMIO fill blitter: fill the W x H rectangle at (X, Y) with
// color C, clipped to the 128x96 screen. Triggered by a store to AddrBlitGo.
// The cycle cost is deferred into pendingCycles; the interpreter folds it
// into the frame's cycle count right after the triggering store.
func (c *Console) blit() {
	x := int(c.mem[AddrBlitX])
	y := int(c.mem[AddrBlitY])
	w := int(c.mem[AddrBlitW])
	h := int(c.mem[AddrBlitH])
	col := c.mem[AddrBlitC]
	c.pendingCycles += blitCost(w, h)

	if x >= ScreenW || y >= ScreenH || w == 0 || h == 0 {
		return
	}
	if x+w > ScreenW {
		w = ScreenW - x
	}
	if y+h > ScreenH {
		h = ScreenH - y
	}

	// Fill the first row by doubling, then replicate it down. Full-width
	// rows are one contiguous span, filled as a single row.
	first := VRAMBase + y*ScreenW + x
	if w == ScreenW {
		w, h = w*h, 1
	}
	row := c.mem[first : first+w]
	row[0] = col
	for filled := 1; filled < w; filled *= 2 {
		copy(row[filled:], row[:filled])
	}
	for r := 1; r < h; r++ {
		copy(c.mem[first+r*ScreenW:first+r*ScreenW+w], row)
	}
	c.markRange(uint16(first), uint16(first+(h-1)*ScreenW+w-1))
}
