package vm

import (
	"encoding/binary"
	"fmt"
)

// Params configures a fresh console.
type Params struct {
	// Code is the program image, copied into memory at LoadAddr.
	Code []byte
	// LoadAddr is where Code is placed. Code must fit below VRAMBase.
	LoadAddr uint16
	// Entry is the initial program counter.
	Entry uint16
	// Seed initializes the in-console LFSR behind the RAND instruction.
	// Replicas must share the seed (it ships in the ROM header), keeping
	// randomness deterministic across sites (§5).
	Seed uint32
}

// DebugEvent is one SYS trap recorded by the console. The log exists for
// tests and tooling; it is not part of the emulated machine state.
type DebugEvent struct {
	Frame int
	Code  uint16
	Value uint32
}

// maxDebugEvents bounds the SYS log so a chatty ROM cannot exhaust memory.
const maxDebugEvents = 65536

// Console is an RK-32 machine instance. It is not safe for concurrent use;
// the frame loop owns it (§2's Algorithm 1 is single-threaded by design).
type Console struct {
	regs [NumRegs]uint32
	pc   uint16
	mem  [MemSize]byte

	frame    int
	halted   bool
	overruns int
	lfsr     uint16

	audio audioState

	// dirty is the live page bitmap: every store path marks the touched
	// pages here, and drainDirty folds it into the consumer accumulators.
	dirty PageBitmap
	// hashDirty accumulates pages marked since the last StateHash; only
	// those pages are compared with hashShadow.
	hashDirty PageBitmap
	// snapDirty accumulates pages changed since the last AppendSaveBase /
	// AppendSaveDelta capture — the delta-savestate chain.
	snapDirty PageBitmap
	// pageHash caches the per-page digest behind the incremental StateHash:
	// pageHash[p] is always the digest of page p of hashShadow.
	pageHash [NumPages]uint64
	// hashShadow is memory as of the last StateHash. A marked page whose
	// bytes match its shadow keeps its cached digest.
	hashShadow [MemSize]byte

	// pendingCycles is the extra instruction-budget cost charged by the
	// blitter; the interpreter folds it into the frame's cycle count right
	// after the store that triggered the fill.
	pendingCycles int

	// debugOn gates SYS logging. Off by default: the log exists for tests
	// and tooling, and the append would be the only allocation on the
	// session hot path.
	debugOn  bool
	debugLog []DebugEvent

	// lastCycles is the instruction count of the most recent frame.
	lastCycles int
	// trace, when set, observes every executed instruction. It must not
	// mutate the console (tracing cannot affect determinism).
	trace func(TraceEvent)
}

// TraceEvent describes one executed instruction, for debuggers and the
// romtool trace command.
type TraceEvent struct {
	Frame int
	Cycle int
	PC    uint16
	Instr Instr
}

// New boots a console from params.
func New(p Params) (*Console, error) {
	end := int(p.LoadAddr) + len(p.Code)
	if end > VRAMBase {
		return nil, fmt.Errorf("vm: code of %d bytes at 0x%04X overruns VRAM at 0x%04X", len(p.Code), p.LoadAddr, VRAMBase)
	}
	c := &Console{pc: p.Entry}
	copy(c.mem[p.LoadAddr:], p.Code)
	c.regs[RegSP] = InitialSP
	c.lfsr = uint16(p.Seed) ^ uint16(p.Seed>>16)
	if c.lfsr == 0 {
		c.lfsr = 0xACE1 // any nonzero tap state
	}
	// The shadow starts zeroed, so every cached digest starts as the zero
	// page's. A fresh console is entirely "modified": both incremental
	// consumers must start from a full pass.
	zero := pageDigest(c.hashShadow[:PageSize])
	for p := range c.pageHash {
		c.pageHash[p] = zero
	}
	c.markAllDirty()
	return c, nil
}

// StepFrame latches input (pad 0 in bits 0-7, pad 1 in bits 8-15) and runs
// the CPU until YIELD, HALT or the cycle budget. This is the paper's
// Transition(I, S): one deterministic state transition per frame, with the
// input treated as an opaque bit string.
func (c *Console) StepFrame(input uint16) {
	if c.halted {
		return
	}
	c.mem[AddrPad0] = byte(input)
	c.mem[AddrPad1] = byte(input >> 8)
	binary.LittleEndian.PutUint16(c.mem[AddrFrame:AddrFrame+2], uint16(c.frame))
	c.markAddr(AddrPad0) // pads and frame counter share the MMIO page

	ran := c.run(CyclesPerFrame)
	if ran >= CyclesPerFrame {
		c.overruns++
	}
	c.lastCycles = ran
	c.frame++
	c.audio.step(c.mem[AddrAudioF], c.mem[AddrAudioV])
}

// SetTrace installs (or, with nil, removes) a per-instruction observer.
// Tracing is read-only and does not alter execution or state hashes.
func (c *Console) SetTrace(fn func(TraceEvent)) { c.trace = fn }

// EnableDebugLog turns on SYS trap recording (see DebugLog). The log is off
// by default so the frame-loop hot path never allocates; tests and tooling
// opt in right after boot.
func (c *Console) EnableDebugLog() { c.debugOn = true }

// CyclesLastFrame reports how many instructions the most recent frame ran.
func (c *Console) CyclesLastFrame() int { return c.lastCycles }

// run executes instructions until YIELD, HALT, an illegal opcode or the
// cycle budget, and returns the consumed cycle count (terminating
// instructions are not counted, matching the original per-instruction
// stepper). The loop is the interpreter hot path: one 32-bit fetch, shift
// decoding and inline dispatch — no per-instruction function calls and no
// Instr construction.
func (c *Console) run(budget int) int {
	pc := c.pc
	mem := &c.mem
	regs := &c.regs
	ran := 0
	for ran < budget {
		if c.trace != nil {
			c.trace(TraceEvent{
				Frame: c.frame,
				Cycle: ran,
				PC:    pc,
				Instr: Decode(mem[pc], mem[(pc+1)&0xFFFF], mem[(pc+2)&0xFFFF], mem[(pc+3)&0xFFFF]),
			})
		}
		var w uint32
		if pc <= MemSize-4 {
			w = binary.LittleEndian.Uint32(mem[pc:])
		} else {
			w = uint32(mem[pc]) |
				uint32(mem[(pc+1)&0xFFFF])<<8 |
				uint32(mem[(pc+2)&0xFFFF])<<16 |
				uint32(mem[(pc+3)&0xFFFF])<<24
		}
		op := byte(w)
		b1 := byte(w >> 8)
		rd := b1 >> 4
		ra := b1 & 0x0F
		imm := uint16(w >> 16)
		npc := pc + 4

		switch op {
		case OpNOP:
		case OpHALT:
			c.halted = true
			c.pc = pc // freeze
			return ran
		case OpYIELD:
			c.pc = npc
			return ran

		case OpMOVI:
			if rd != 0 {
				regs[rd] = uint32(int32(int16(imm)))
			}
		case OpMOVHI:
			if rd != 0 {
				regs[rd] = regs[rd]&0xFFFF | uint32(imm)<<16
			}
		case OpMOV:
			if rd != 0 {
				regs[rd] = regs[ra]
			}

		case OpADD:
			if rd != 0 {
				regs[rd] = regs[ra] + regs[imm&0x0F]
			}
		case OpSUB:
			if rd != 0 {
				regs[rd] = regs[ra] - regs[imm&0x0F]
			}
		case OpMUL:
			if rd != 0 {
				regs[rd] = regs[ra] * regs[imm&0x0F]
			}
		case OpDIV:
			if rd != 0 {
				regs[rd] = sdiv(regs[ra], regs[imm&0x0F])
			}
		case OpMOD:
			if rd != 0 {
				regs[rd] = smod(regs[ra], regs[imm&0x0F])
			}
		case OpAND:
			if rd != 0 {
				regs[rd] = regs[ra] & regs[imm&0x0F]
			}
		case OpOR:
			if rd != 0 {
				regs[rd] = regs[ra] | regs[imm&0x0F]
			}
		case OpXOR:
			if rd != 0 {
				regs[rd] = regs[ra] ^ regs[imm&0x0F]
			}
		case OpSHL:
			if rd != 0 {
				regs[rd] = regs[ra] << (regs[imm&0x0F] & 31)
			}
		case OpSHR:
			if rd != 0 {
				regs[rd] = regs[ra] >> (regs[imm&0x0F] & 31)
			}
		case OpSAR:
			if rd != 0 {
				regs[rd] = uint32(int32(regs[ra]) >> (regs[imm&0x0F] & 31))
			}

		case OpADDI:
			if rd != 0 {
				regs[rd] = regs[ra] + uint32(int32(int16(imm)))
			}
		case OpMULI:
			if rd != 0 {
				regs[rd] = regs[ra] * uint32(int32(int16(imm)))
			}
		case OpANDI:
			if rd != 0 {
				regs[rd] = regs[ra] & uint32(imm)
			}
		case OpORI:
			if rd != 0 {
				regs[rd] = regs[ra] | uint32(imm)
			}
		case OpXORI:
			if rd != 0 {
				regs[rd] = regs[ra] ^ uint32(imm)
			}
		case OpSHLI:
			if rd != 0 {
				regs[rd] = regs[ra] << (imm & 31)
			}
		case OpSHRI:
			if rd != 0 {
				regs[rd] = regs[ra] >> (imm & 31)
			}
		case OpSARI:
			if rd != 0 {
				regs[rd] = uint32(int32(regs[ra]) >> (imm & 31))
			}
		case OpDIVI:
			if rd != 0 {
				regs[rd] = sdiv(regs[ra], uint32(int32(int16(imm))))
			}
		case OpMODI:
			if rd != 0 {
				regs[rd] = smod(regs[ra], uint32(int32(int16(imm))))
			}

		case OpLDB:
			if rd != 0 {
				regs[rd] = uint32(mem[uint16(regs[ra]+uint32(int32(int16(imm))))])
			}
		case OpLDH:
			a := uint16(regs[ra] + uint32(int32(int16(imm))))
			var v uint16
			if a <= MemSize-2 {
				v = binary.LittleEndian.Uint16(mem[a:])
			} else {
				v = c.load16(a)
			}
			if rd != 0 {
				regs[rd] = uint32(v)
			}
		case OpLDW:
			a := uint16(regs[ra] + uint32(int32(int16(imm))))
			var v uint32
			if a <= MemSize-4 {
				v = binary.LittleEndian.Uint32(mem[a:])
			} else {
				v = c.load32(a)
			}
			if rd != 0 {
				regs[rd] = v
			}

		case OpSTB:
			a := uint16(regs[ra] + uint32(int32(int16(imm))))
			if a>>pageShift != mmioPage {
				mem[a] = byte(regs[rd])
				c.dirty[a>>14] |= 1 << ((a >> pageShift) & 63)
			} else {
				c.storeMMIO(a, byte(regs[rd]))
				if c.pendingCycles != 0 {
					ran += c.pendingCycles
					c.pendingCycles = 0
				}
			}
		case OpSTH:
			a := uint16(regs[ra] + uint32(int32(int16(imm))))
			// Fast path: no wrap and at least a page away from MMIO.
			if a <= MemSize-2 && uint16(a-(AddrPad0-1)) > PageSize {
				binary.LittleEndian.PutUint16(mem[a:], uint16(regs[rd]))
				c.dirty[a>>14] |= 1 << ((a >> pageShift) & 63)
				e := a + 1
				c.dirty[e>>14] |= 1 << ((e >> pageShift) & 63)
			} else {
				c.store16(a, uint16(regs[rd]))
				if c.pendingCycles != 0 {
					ran += c.pendingCycles
					c.pendingCycles = 0
				}
			}
		case OpSTW:
			a := uint16(regs[ra] + uint32(int32(int16(imm))))
			if a <= MemSize-4 && uint16(a-(AddrPad0-3)) > PageSize+2 {
				binary.LittleEndian.PutUint32(mem[a:], regs[rd])
				c.dirty[a>>14] |= 1 << ((a >> pageShift) & 63)
				e := a + 3
				c.dirty[e>>14] |= 1 << ((e >> pageShift) & 63)
			} else {
				c.store32(a, regs[rd])
				if c.pendingCycles != 0 {
					ran += c.pendingCycles
					c.pendingCycles = 0
				}
			}

		case OpJMP:
			npc = imm
		case OpJR:
			npc = uint16(regs[ra])
		case OpCALL:
			regs[RegSP] -= 4
			a := uint16(regs[RegSP])
			if a <= MemSize-4 && uint16(a-(AddrPad0-3)) > PageSize+2 {
				binary.LittleEndian.PutUint32(mem[a:], uint32(npc))
				c.dirty[a>>14] |= 1 << ((a >> pageShift) & 63)
				e := a + 3
				c.dirty[e>>14] |= 1 << ((e >> pageShift) & 63)
			} else {
				c.store32(a, uint32(npc))
				if c.pendingCycles != 0 {
					ran += c.pendingCycles
					c.pendingCycles = 0
				}
			}
			npc = imm
		case OpRET:
			a := uint16(regs[RegSP])
			var v uint32
			if a <= MemSize-4 {
				v = binary.LittleEndian.Uint32(mem[a:])
			} else {
				v = c.load32(a)
			}
			regs[RegSP] += 4
			npc = uint16(v)

		case OpBEQ:
			if regs[rd] == regs[ra] {
				npc = imm
			}
		case OpBNE:
			if regs[rd] != regs[ra] {
				npc = imm
			}
		case OpBLT:
			if int32(regs[rd]) < int32(regs[ra]) {
				npc = imm
			}
		case OpBGE:
			if int32(regs[rd]) >= int32(regs[ra]) {
				npc = imm
			}
		case OpBLTU:
			if regs[rd] < regs[ra] {
				npc = imm
			}
		case OpBGEU:
			if regs[rd] >= regs[ra] {
				npc = imm
			}

		case OpPUSH:
			regs[RegSP] -= 4
			a := uint16(regs[RegSP])
			if a <= MemSize-4 && uint16(a-(AddrPad0-3)) > PageSize+2 {
				binary.LittleEndian.PutUint32(mem[a:], regs[rd])
				c.dirty[a>>14] |= 1 << ((a >> pageShift) & 63)
				e := a + 3
				c.dirty[e>>14] |= 1 << ((e >> pageShift) & 63)
			} else {
				c.store32(a, regs[rd])
				if c.pendingCycles != 0 {
					ran += c.pendingCycles
					c.pendingCycles = 0
				}
			}
		case OpPOP:
			a := uint16(regs[RegSP])
			var v uint32
			if a <= MemSize-4 {
				v = binary.LittleEndian.Uint32(mem[a:])
			} else {
				v = c.load32(a)
			}
			regs[RegSP] += 4
			if rd != 0 {
				regs[rd] = v
			}

		case OpRAND:
			if rd != 0 {
				regs[rd] = uint32(c.rand16())
			}
		case OpSYS:
			if c.debugOn && len(c.debugLog) < maxDebugEvents {
				c.debugLog = append(c.debugLog, DebugEvent{Frame: c.frame, Code: imm, Value: regs[rd]})
			}

		default:
			// Unknown opcode: halt deterministically rather than guessing.
			c.halted = true
			c.pc = pc
			return ran
		}
		ran++
		pc = npc
	}
	c.pc = pc
	return ran
}

// load16 is the wrap-around (address 0xFFFF) halfword load.
func (c *Console) load16(a uint16) uint16 {
	return uint16(c.mem[a]) | uint16(c.mem[(a+1)&0xFFFF])<<8
}

// load32 is the wrap-around word load.
func (c *Console) load32(a uint16) uint32 {
	return uint32(c.mem[a]) |
		uint32(c.mem[(a+1)&0xFFFF])<<8 |
		uint32(c.mem[(a+2)&0xFFFF])<<16 |
		uint32(c.mem[(a+3)&0xFFFF])<<24
}

// store8 writes one byte of memory, honoring the MMIO page's read-only and
// device semantics, and marks the page dirty.
func (c *Console) store8(a uint16, v byte) {
	if a>>pageShift == mmioPage {
		c.storeMMIO(a, v)
		return
	}
	c.mem[a] = v
	c.markAddr(a)
}

// storeMMIO handles byte stores into the 0xF0xx device page: the pads and
// frame counter are read-only, a write to AddrBlitGo fires the fill blitter,
// and everything else behaves as plain memory.
func (c *Console) storeMMIO(a uint16, v byte) {
	switch a {
	case AddrPad0, AddrPad1, AddrFrame, AddrFrame + 1:
		return
	case AddrBlitGo:
		c.mem[a] = v
		c.markAddr(a)
		c.blit()
	default:
		c.mem[a] = v
		c.markAddr(a)
	}
}

func (c *Console) store16(a uint16, v uint16) {
	c.store8(a, byte(v))
	c.store8((a+1)&0xFFFF, byte(v>>8))
}

func (c *Console) store32(a uint16, v uint32) {
	c.store8(a, byte(v))
	c.store8((a+1)&0xFFFF, byte(v>>8))
	c.store8((a+2)&0xFFFF, byte(v>>16))
	c.store8((a+3)&0xFFFF, byte(v>>24))
}

// rand16 advances the 16-bit Fibonacci LFSR (taps 16,14,13,11) once per
// output bit, producing a full 16-bit value.
func (c *Console) rand16() uint16 {
	var v uint16
	for i := 0; i < 16; i++ {
		bit := (c.lfsr ^ c.lfsr>>2 ^ c.lfsr>>3 ^ c.lfsr>>5) & 1
		c.lfsr = c.lfsr>>1 | bit<<15
		v = v<<1 | bit
	}
	return v
}

func sdiv(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return uint32(int32(a) / int32(b))
}

func smod(a, b uint32) uint32 {
	if b == 0 {
		return 0
	}
	return uint32(int32(a) % int32(b))
}

// FrameCount reports how many frames have been executed.
func (c *Console) FrameCount() int { return c.frame }

// Halted reports whether the console hit HALT or an illegal opcode.
func (c *Console) Halted() bool { return c.halted }

// Overruns reports how many frames exhausted the cycle budget.
func (c *Console) Overruns() int { return c.overruns }

// Reg returns the value of register r (for tests and tooling).
func (c *Console) Reg(r int) uint32 { return c.regs[r&0x0F] }

// PC returns the current program counter.
func (c *Console) PC() uint16 { return c.pc }

// Peek reads a byte of memory without side effects.
func (c *Console) Peek(addr uint16) byte { return c.mem[addr] }

// Peek32 reads a 32-bit little-endian word without side effects.
func (c *Console) Peek32(addr uint16) uint32 { return c.load32(addr) }

// Poke writes a byte of memory, honoring MMIO read-only rules. It exists for
// tests; game-transparent operation never pokes memory from outside.
func (c *Console) Poke(addr uint16, v byte) {
	c.store8(addr, v)
	c.pendingCycles = 0 // an out-of-band poke of BLITGO costs no game cycles
}

// DebugLog returns the recorded SYS events (empty unless EnableDebugLog was
// called).
func (c *Console) DebugLog() []DebugEvent {
	out := make([]DebugEvent, len(c.debugLog))
	copy(out, c.debugLog)
	return out
}
