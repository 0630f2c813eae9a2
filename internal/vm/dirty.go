package vm

// Dirty-page write tracking.
//
// The console's 64 KiB address space is divided into 256-byte pages. Every
// mutation funnels through a small set of store paths (the interpreter's
// store instructions, the blitter, the MMIO input latch, Poke, Restore and
// ApplyDelta), and each of them marks the touched pages in a live PageBitmap.
// Consumers never read the live bitmap directly: drainDirty folds it into the
// per-consumer accumulators — one for the incremental StateHash page cache,
// one for the delta-savestate chain — and clears it. Marking is conservative:
// a page may be marked without actually changing (a store that rewrites the
// same value still marks), but a changed page is never missed. That one-way
// error is what makes the incremental paths safe: a falsely-dirty page costs
// StateHash a 256-byte compare and the delta chain a shipped page, never a
// wrong answer.
const (
	// PageSize is the dirty-tracking granularity in bytes.
	PageSize = 256
	// NumPages is MemSize / PageSize.
	NumPages = MemSize / PageSize
	// pageShift converts an address to its page index.
	pageShift = 8
	// pageWords is the uint64 count of a PageBitmap.
	pageWords = NumPages / 64
)

// PageBitmap is one bit per 256-byte memory page.
type PageBitmap [pageWords]uint64

// Test reports whether page p is marked.
func (b *PageBitmap) Test(p int) bool { return b[p>>6]&(1<<(uint(p)&63)) != 0 }

// Clear resets every bit.
func (b *PageBitmap) Clear() { *b = PageBitmap{} }

// SetAll marks every page.
func (b *PageBitmap) SetAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// Or folds o into b.
func (b *PageBitmap) Or(o *PageBitmap) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Count returns the number of marked pages.
func (b *PageBitmap) Count() int {
	n := 0
	for _, w := range b {
		n += popcount(w)
	}
	return n
}

// Any reports whether at least one page is marked.
func (b *PageBitmap) Any() bool {
	return b[0]|b[1]|b[2]|b[3] != 0
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// markAddr marks the page containing address a in the live bitmap, in one
// line so that the interpreter inlines it on its store fast paths.
func (c *Console) markAddr(a uint16) {
	c.dirty[a>>14] |= 1 << ((a >> pageShift) & 63)
}

// markRange marks every page from the one containing lo to the one
// containing hi (inclusive; lo <= hi). Used by the blitter, whose fills are
// page-contiguous in the worst case. It sets each bitmap word's run of bits
// with one mask.
func (c *Console) markRange(lo, hi uint16) {
	p, q := int(lo>>pageShift), int(hi>>pageShift)
	for w := p >> 6; w <= q>>6; w++ {
		m := ^uint64(0)
		if w == p>>6 {
			m <<= uint(p) & 63
		}
		if w == q>>6 {
			m &= ^uint64(0) >> (63 - uint(q)&63)
		}
		c.dirty[w] |= m
	}
}

// drainDirty folds the live bitmap into every consumer accumulator and
// clears it. Called at the two consumption points: StateHash and the
// delta-savestate captures.
func (c *Console) drainDirty() {
	if !c.dirty.Any() {
		return
	}
	c.hashDirty.Or(&c.dirty)
	c.snapDirty.Or(&c.dirty)
	c.dirty.Clear()
}

// markAllDirty marks the whole address space modified (boot, Restore).
func (c *Console) markAllDirty() {
	c.dirty.SetAll()
}
