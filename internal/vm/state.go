package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Machine state capture: hashing for cross-replica convergence checks and
// savestates for the journal version's late-joiner support (a joining site
// receives a savestate plus the inputs after it, instead of replaying the
// whole game).

// savestate format (little endian):
//
//	magic   "RKSV" (4)
//	version u16
//	pc      u16
//	frame   u32
//	flags   u8 (bit0 halted, bit1 audio oddTick)
//	lfsr    u16
//	phase   u32
//	overrun u32
//	regs    16 x u32
//	mem     MemSize bytes
const (
	saveMagic   = "RKSV"
	saveVersion = 1
	saveLen     = 4 + 2 + 2 + 4 + 1 + 2 + 4 + 4 + NumRegs*4 + MemSize

	// Field offsets within a savestate image, shared with the delta format
	// (delta.go) so a delta can patch a full image in place.
	savePCOff      = 6
	saveFrameOff   = 8
	saveFlagsOff   = 12
	saveLFSROff    = 13
	savePhaseOff   = 15
	saveOverrunOff = 19
	saveRegsOff    = 23
	saveMemOff     = 23 + NumRegs*4
)

// FNV-1a parameters, applied word-at-a-time (not byte-at-a-time, so the
// digest differs from stock FNV — all consumers compare hashes for equality
// only, never against an external reference).
const (
	hashOffset uint64 = 14695981039346656037
	hashPrime  uint64 = 1099511628211
)

// pageDigest hashes one 256-byte page, eight bytes per fold.
func pageDigest(p []byte) uint64 {
	h := hashOffset
	_ = p[PageSize-1]
	for i := 0; i <= PageSize-8; i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(p[i:])) * hashPrime
	}
	return h
}

// StateHash returns a 64-bit digest of the complete machine state:
// registers, PC, halt flag, memory (including VRAM and MMIO), the RNG and
// the audio oscillator. Two replicas that stay logically consistent report
// equal hashes after every frame (§3's convergence condition).
//
// The digest is incremental: a per-page hash cache folds with the small
// header fields, and only pages whose bytes changed since the last call are
// re-digested. The dirty-page bitmap names the candidates, but marking is
// conservative and most games clear the whole screen with the blitter every
// frame, so about 51 of the 256 pages are marked while only 3 to 16 end the
// frame with different bytes (EXPERIMENTS.md, "Content-checked StateHash").
// Each marked page is therefore compared with hashShadow, memory as of the
// last call, and digested only if it differs. The cache keeps the invariant
// pageHash[p] == pageDigest(hashShadow page p) from New onwards.
func (c *Console) StateHash() uint64 {
	c.drainDirty()
	for wi, wv := range c.hashDirty {
		for wv != 0 {
			p := wi<<6 + bits.TrailingZeros64(wv)
			wv &= wv - 1
			lo := p << pageShift
			live, shadow := c.mem[lo:lo+PageSize], c.hashShadow[lo:lo+PageSize]
			if !bytes.Equal(live, shadow) {
				c.pageHash[p] = pageDigest(live)
				copy(shadow, live)
			}
		}
	}
	c.hashDirty.Clear()
	return c.digest(&c.pageHash)
}

// digest folds the header fields and the given per-page digests into the
// state hash.
func (c *Console) digest(pages *[NumPages]uint64) uint64 {
	h := hashOffset
	for _, r := range c.regs {
		h = (h ^ uint64(r)) * hashPrime
	}
	h = (h ^ uint64(c.pc)) * hashPrime
	h = (h ^ uint64(uint32(c.frame))) * hashPrime
	var flags uint64
	if c.halted {
		flags |= 1
	}
	if c.audio.oddTick {
		flags |= 2
	}
	h = (h ^ flags) * hashPrime
	h = (h ^ uint64(c.lfsr)) * hashPrime
	h = (h ^ uint64(c.audio.phase)) * hashPrime
	for _, ph := range pages {
		h = (h ^ ph) * hashPrime
	}
	return h
}

// Save serializes the complete machine state.
func (c *Console) Save() []byte {
	return c.AppendSave(make([]byte, 0, saveLen))
}

// AppendSave appends the savestate image to buf and returns the extended
// slice. A caller that keeps the returned slice and re-passes buf[:0] (the
// flight recorder's snapshot ring does) serializes the full state without
// allocating: the image is a fixed saveLen bytes, so after the first call the
// buffer never grows again.
//
// AppendSave does not interact with the delta-savestate chain; use
// AppendSaveBase/AppendSaveDelta (delta.go) for that.
func (c *Console) AppendSave(buf []byte) []byte {
	buf = c.appendSaveHeader(buf)
	buf = append(buf, c.mem[:]...)
	return buf
}

// appendSaveHeader writes the non-memory fields shared by the full and delta
// savestate formats (everything between magic and the memory payload).
func (c *Console) appendSaveHeader(buf []byte) []byte {
	buf = append(buf, saveMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, saveVersion)
	buf = binary.LittleEndian.AppendUint16(buf, c.pc)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.frame))
	var flags byte
	if c.halted {
		flags |= 1
	}
	if c.audio.oddTick {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint16(buf, c.lfsr)
	buf = binary.LittleEndian.AppendUint32(buf, c.audio.phase)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.overruns))
	for _, r := range c.regs {
		buf = binary.LittleEndian.AppendUint32(buf, r)
	}
	return buf
}

// Restore replaces the machine state with a prior Save image.
func (c *Console) Restore(data []byte) error {
	if len(data) != saveLen {
		return fmt.Errorf("vm: savestate is %d bytes, want %d", len(data), saveLen)
	}
	if string(data[:4]) != saveMagic {
		return fmt.Errorf("vm: bad savestate magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != saveVersion {
		return fmt.Errorf("vm: savestate version %d unsupported (want %d)", v, saveVersion)
	}
	off := savePCOff
	c.pc = binary.LittleEndian.Uint16(data[off:])
	off += 2
	c.frame = int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	flags := data[off]
	off++
	c.halted = flags&1 != 0
	c.audio.oddTick = flags&2 != 0
	c.lfsr = binary.LittleEndian.Uint16(data[off:])
	off += 2
	c.audio.phase = binary.LittleEndian.Uint32(data[off:])
	off += 4
	c.overruns = int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	for i := range c.regs {
		c.regs[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	copy(c.mem[:], data[off:])
	// The entire address space may have changed: both incremental consumers
	// (hash cache, delta chain) must resynchronize from scratch.
	c.markAllDirty()
	return nil
}
