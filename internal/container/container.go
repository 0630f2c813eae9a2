// Package container is the one framing retrolock's sealed binary artefacts
// share. RK32 cartridges (internal/rom), RKRP replay logs (internal/replay),
// RKFB flight bundles (internal/flight) and RKCP captures (internal/capture)
// are schemas over it:
//
//	magic    4 bytes
//	version  u16
//	body     schema-defined — fixed fields (RK32, RKRP) or tagged sections
//	         (RKFB, RKCP), each tag u8 · length u32 · payload
//	trailer  u32 — FNV-1a/32 of every preceding byte
//
// Everything is little endian. These files are where bytes from outside the
// program enter (triage, romtool verify, capture.Decode), so every check
// on an untrusted length lives here: Open on the frame, Sections on section
// lengths, Reader on fields, Reader.Count on record counts. All of them are
// total — damaged input yields an error, never a panic or an allocation
// sized by a number the input merely claims (FuzzContainer and each
// schema's own fuzzer enforce this).
package container

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

const (
	headerSize  = 4 + 2
	trailerSize = 4
)

func sum(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// Begin appends a frame header to buf.
func Begin(buf []byte, magic string, version uint16) []byte {
	return binary.LittleEndian.AppendUint16(append(buf, magic...), version)
}

// Seal appends the trailer over everything in buf, finishing the frame.
func Seal(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(buf, sum(buf))
}

// Open checks the frame around data — length, magic, version, trailer — and
// returns the body between header and trailer.
func Open(data []byte, magic string, version uint16) ([]byte, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%d bytes too short for a %s container", len(data), magic)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("bad magic %q, want %q", data[:4], magic)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != version {
		return nil, fmt.Errorf("unsupported %s version %d", magic, v)
	}
	end := len(data) - trailerSize
	if got, want := sum(data[:end]), binary.LittleEndian.Uint32(data[end:]); got != want {
		return nil, fmt.Errorf("checksum mismatch (%s corrupt): %#x != %#x", magic, got, want)
	}
	return data[headerSize:end], nil
}

// AppendSection appends one tagged section to buf.
func AppendSection(buf []byte, tag byte, payload []byte) []byte {
	buf = append(buf, tag)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// Sections walks a body made of tagged sections, handing each to fn in
// order; payload aliases body. A schema ignores tags it does not know, so
// files from a newer writer stay readable.
func Sections(body []byte, fn func(tag byte, payload []byte) error) error {
	for r := NewReader(body); r.Len() > 0; {
		tag := r.U8()
		payload := r.Bytes(int(r.U32()))
		if r.Err() != nil {
			return fmt.Errorf("section %d: %w", tag, r.Err())
		}
		if err := fn(tag, payload); err != nil {
			return err
		}
	}
	return nil
}

// Reader consumes little-endian fields from untrusted bytes. The first read
// past the end latches Err and empties the reader; that read and every later
// one return zero, so a schema decodes straight through and checks Err once.
type Reader struct {
	p   []byte
	err error
}

// NewReader reads from p.
func NewReader(p []byte) *Reader { return &Reader{p: p} }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.p) }

// Err is the first out-of-bounds read, if any.
func (r *Reader) Err() error { return r.err }

// Bytes consumes the next n bytes; the result aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.p) {
		if r.err == nil {
			r.err = fmt.Errorf("%d bytes declared, %d available", n, len(r.p))
		}
		r.p = nil
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

// U8, U16, U32 and U64 consume one fixed-width field.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count consumes the u32 count that prefixes an array of records of at
// least recSize bytes each, and rejects a count the remaining bytes cannot
// hold — so the result is safe to allocate by.
func (r *Reader) Count(recSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > len(r.p)/recSize {
		r.err = fmt.Errorf("%d records of %d bytes declared, %d bytes available", n, recSize, len(r.p))
		r.p = nil
		return 0
	}
	return n
}
