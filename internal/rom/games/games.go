// Package games ships the RK-32 game library: complete two-player arcade
// games written in the console's assembly language and distributed as ROM
// images.
//
// These play the role of the legacy game in the paper's evaluation (§4 used
// Street Fighter 2 under MAME, noting "the actual game does not affect the
// results"). Each game reads both pads from MMIO every frame, so player 0
// controls input bits 0-7 and player 1 controls bits 8-15 — the SET[k]
// partition the sync algorithm distributes across sites. The games never
// interact with the sync layer; they are opaque ROMs, which is the whole
// point of game transparency.
package games

import (
	"fmt"
	"sort"

	"retrolock/internal/rom"
)

// libSrc is the shared drawing runtime appended to every game.
//
// Calling convention: arguments in r1-r5, return value in r1; the library
// routines clobber only r6-r9.
const libSrc = `
; ---------------------------------------------------------------
; shared runtime
; ---------------------------------------------------------------
.equ VRAM,    0xC000
.equ VRAMEND, 0xF000
.equ PAD0,    0xF000
.equ PAD1,    0xF001
.equ AUDIOF,  0xF004
.equ AUDIOV,  0xF005
.equ BLITX,   0xF008

; clear_screen: fill VRAM with color r1 via the MMIO blitter. Clobbers r6-r8.
clear_screen:
	li   r8, BLITX
	stb  r0, [r8]         ; x = 0
	stb  r0, [r8+1]       ; y = 0
	li   r6, 128
	stb  r6, [r8+2]       ; w = screen width
	li   r6, 96
	stb  r6, [r8+3]       ; h = screen height
	stb  r1, [r8+4]       ; color
	stb  r0, [r8+5]       ; go
	ret

; fill_rect: draw w x h rect of color r5 at (r1, r2), w=r3 h=r4, via the
; MMIO blitter (which clips to the screen). Clobbers r6-r9.
fill_rect:
	li   r8, BLITX
	stb  r1, [r8]
	stb  r2, [r8+1]
	stb  r3, [r8+2]
	stb  r4, [r8+3]
	stb  r5, [r8+4]
	stb  r0, [r8+5]       ; go
	ret

; tone: program the audio registers; r1 = freq index (0 = off), r2 = volume.
; Clobbers r8.
tone:
	li   r8, AUDIOF
	stb  r1, [r8]
	stb  r2, [r8+1]
	ret

; draw_digit: render digit r3 (0-9) in color r4 at (r1, r2) using the 3x5
; font below. Preserves r1-r5; clobbers r6-r10.
draw_digit:
	li   r6, font3x5
	muli r7, r3, 5
	add  r6, r6, r7        ; glyph pointer
	mov  r10, r0           ; row counter
dd_row:
	li   r7, 5
	bge  r10, r7, dd_done
	ldb  r7, [r6]          ; row bits: bit2 left, bit0 right
	add  r8, r2, r10
	shli r8, r8, 7
	add  r8, r8, r1
	li   r9, VRAM
	add  r8, r8, r9        ; address of the leftmost pixel
	andi r9, r7, 4
	beq  r9, r0, dd_c1
	stb  r4, [r8]
dd_c1:
	andi r9, r7, 2
	beq  r9, r0, dd_c2
	stb  r4, [r8+1]
dd_c2:
	andi r9, r7, 1
	beq  r9, r0, dd_c3
	stb  r4, [r8+2]
dd_c3:
	addi r6, r6, 1
	addi r10, r10, 1
	jmp  dd_row
dd_done:
	ret

; draw_number: render r3 (0-99) in color r4 at (r1, r2) as two digits.
; Preserves r1-r5; clobbers r6-r12.
draw_number:
	mov  r11, r3           ; save value
	mov  r12, r1           ; save x
	divi r3, r11, 10
	call draw_digit        ; tens
	addi r1, r1, 4
	modi r3, r11, 10
	call draw_digit        ; ones
	mov  r1, r12
	mov  r3, r11
	ret

font3x5:
	.byte 7,5,5,5,7        ; 0
	.byte 2,6,2,2,7        ; 1
	.byte 7,1,7,4,7        ; 2
	.byte 7,1,7,1,7        ; 3
	.byte 5,5,7,1,1        ; 4
	.byte 7,4,7,1,7        ; 5
	.byte 7,4,7,5,7        ; 6
	.byte 7,1,2,2,2        ; 7
	.byte 7,5,7,5,7        ; 8
	.byte 7,5,7,1,7        ; 9
.align 4
`

// Meta describes one shipped game.
type Meta struct {
	Name  string
	Title string
	// Seed is the LFSR seed baked into the ROM header.
	Seed uint32
	// Build assembles a fresh ROM image.
	Build func() (*rom.ROM, error)
}

// Per-game LFSR seeds baked into the ROM headers (ASCII of the titles).
const (
	pongSeed  = 0x504F4E47 // "PONG"
	duelSeed  = 0x4455454C // "DUEL"
	tanksSeed = 0x54414E4B // "TANK"
)

// catalog lists every shipped game by short name.
var catalog = map[string]Meta{
	"pong":  {Name: "pong", Title: "Pong Duel", Seed: pongSeed, Build: buildPong},
	"duel":  {Name: "duel", Title: "Street Brawler", Seed: duelSeed, Build: buildDuel},
	"tanks": {Name: "tanks", Title: "Tank Battle", Seed: tanksSeed, Build: buildTanks},
}

// Names returns the shipped game names, sorted.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Load assembles the named game.
func Load(name string) (*rom.ROM, error) {
	meta, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("games: unknown game %q (have %v)", name, Names())
	}
	return meta.Build()
}

// MustLoad is Load for callers with a statically known name.
func MustLoad(name string) *rom.ROM {
	r, err := Load(name)
	if err != nil {
		panic(err)
	}
	return r
}

func buildPong() (*rom.ROM, error) {
	return rom.AssembleROM("Pong Duel", pongSrc+libSrc, pongSeed)
}

func buildDuel() (*rom.ROM, error) {
	return rom.AssembleROM("Street Brawler", duelSrc+libSrc, duelSeed)
}

func buildTanks() (*rom.ROM, error) {
	return rom.AssembleROM("Tank Battle", tanksSrc+libSrc, tanksSeed)
}
