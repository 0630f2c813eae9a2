// Package rom implements the RK-32 cartridge toolchain: the ROM container
// format, a two-pass assembler for the console's instruction set, and (in
// the games subpackage) the game library shipped with the system.
//
// In the paper's setup both players load "the same game image" into their
// VMs (§2); the ROM image is that artifact. The header carries the LFSR
// seed, so replicated consoles share their randomness source and stay
// deterministic (§5).
package rom

import (
	"encoding/binary"
	"fmt"

	"retrolock/internal/container"
	"retrolock/internal/vm"
)

// RK32 is a container frame (see internal/container) whose body is fixed
// fields:
//
//	flags    u16 (reserved, zero)
//	entry    u16
//	loadAddr u16
//	seed     u32
//	titleLen u8, title bytes (UTF-8)
//	codeLen  u32, code bytes
const (
	Magic   = "RK32"
	Version = 1
)

// maxTitle is the longest title the u8 length prefix can describe.
const maxTitle = 255

// ROM is a decoded cartridge.
type ROM struct {
	Title    string
	Entry    uint16
	LoadAddr uint16
	Seed     uint32
	Code     []byte
}

// Encode serializes the ROM into its container format. A title longer than
// maxTitle bytes is cut there, length byte and bytes alike.
func (r *ROM) Encode() []byte {
	title := r.Title[:min(len(r.Title), maxTitle)]
	buf := make([]byte, 0, 21+len(title)+len(r.Code)+4)
	buf = container.Begin(buf, Magic, Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint16(buf, r.Entry)
	buf = binary.LittleEndian.AppendUint16(buf, r.LoadAddr)
	buf = binary.LittleEndian.AppendUint32(buf, r.Seed)
	buf = append(buf, byte(len(title)))
	buf = append(buf, title...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Code)))
	buf = append(buf, r.Code...)
	return container.Seal(buf)
}

// Decode parses a container image.
func Decode(data []byte) (*ROM, error) {
	body, err := container.Open(data, Magic, Version)
	if err != nil {
		return nil, fmt.Errorf("rom: %w", err)
	}
	f := container.NewReader(body)
	f.U16() // flags
	r := &ROM{Entry: f.U16(), LoadAddr: f.U16(), Seed: f.U32()}
	r.Title = string(f.Bytes(int(f.U8())))
	r.Code = append([]byte{}, f.Bytes(int(f.U32()))...)
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("rom: truncated image: %w", err)
	}
	return r, nil
}

// Boot creates a console running this ROM.
func (r *ROM) Boot() (*vm.Console, error) {
	return vm.New(vm.Params{
		Code:     r.Code,
		LoadAddr: r.LoadAddr,
		Entry:    r.Entry,
		Seed:     r.Seed,
	})
}
