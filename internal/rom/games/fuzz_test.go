package games

import (
	"bytes"
	"testing"

	"retrolock/internal/rom"
	"retrolock/internal/vm"
)

// FuzzAssemble feeds mutated game source through the whole cartridge
// toolchain: assemble, wrap, encode, decode, disassemble. Seeded with the
// real source of every shipped game, so the corpus starts on the valid
// grammar and mutates outward; each game also goes in without the shared
// library, so the corpus starts on the unresolved-label path too. Properties: the assembler never panics and
// never emits more than the 64 KiB address space; anything it accepts
// survives the container round-trip byte-for-byte; and the disassembler
// renders the accepted image without panicking.
func FuzzAssemble(f *testing.F) {
	for _, src := range []string{pongSrc, duelSrc, tanksSrc} {
		f.Add(src + libSrc)
	}
	for _, src := range []string{pongSrc, duelSrc, tanksSrc} {
		f.Add(src)
	}
	f.Add(libSrc)
	f.Add("start:\n\tmovi r1, 1\n\tjmp start\n")
	f.Add(".org 0x100\n.space 16, 0xAA\n.word start\nstart: ret\n")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 128*1024 {
			t.Skip("oversized input")
		}
		a, err := rom.Assemble(src)
		if err != nil {
			return
		}
		if len(a.Code) > rom.MaxImageSize {
			t.Fatalf("assembler emitted %d bytes, past the %d-byte address space", len(a.Code), rom.MaxImageSize)
		}
		r := &rom.ROM{Title: "Fuzz", Entry: a.Entry(), Seed: 7, Code: a.Code}
		decoded, err := rom.Decode(r.Encode())
		if err != nil {
			t.Fatalf("decoding a freshly encoded ROM failed: %v", err)
		}
		if !bytes.Equal(decoded.Code, a.Code) {
			t.Fatal("container round-trip changed the code image")
		}
		_ = vm.DisassembleCode(decoded.Code, 0)
	})
}
