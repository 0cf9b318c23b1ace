package pdb

// This file is the write side of the versioned binary PDB encoding —
// the hardware-speed sibling of the ASCII format of write.go. The two
// encodings carry the same document model: reading either and writing
// the other round-trips byte-identically (the differential tests pin
// ascii → binary → ascii down to the byte).
//
// Layout (all integers little-endian or varint):
//
//	magic    "PDTB" (4 bytes; ASCII files start "<PDB", so the first
//	         byte alone separates the two formats)
//	header   u16 version, u16 flags, uvarint section count,
//	         one TOC entry per section (u8 kind, uvarint payload
//	         length, u32 CRC-32C of the payload),
//	         u32 CRC-32C of the header bytes (version..TOC end)
//	payloads the section payloads, concatenated in TOC order
//
// Sections: an interned string table first, then one section per item
// kind in the ASCII writer's order (files, templates, routines,
// classes, types, namespaces, macros). Every string in an item payload
// is a uvarint index into the string table; IDs, line/column numbers,
// and array lengths are zigzag varints (signed values survive); bools
// are single bytes. Each item payload starts with a uvarint item
// count.
//
// The per-section checksums make damage locally diagnosable: the
// lenient reader (binary_read.go) drops exactly the sections whose
// bytes were touched and recovers every other one, mirroring the
// span-skipping recovery contract of the ASCII lenient reader.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// BinaryMagic is the 4-byte signature binary PDB files start with.
// Readers sniff it to auto-detect the encoding.
const BinaryMagic = "PDTB"

// BinaryVersion is the format version this package writes. Readers
// accept exactly the versions they know; anything newer is a
// structured "unsupported version" error, never a garbled parse —
// the compatibility contract of DESIGN D11.
const BinaryVersion = 1

// Section kind codes. The string table must precede every item
// section that references it; the writer emits it first.
const (
	secStrings byte = iota
	secFiles
	secTemplates
	secRoutines
	secClasses
	secTypes
	secNamespaces
	secMacros
	sectionCount = 8
)

// sectionName names a section kind in diagnostics.
func sectionName(kind byte) string {
	switch kind {
	case secStrings:
		return "strings"
	case secFiles:
		return "files"
	case secTemplates:
		return "templates"
	case secRoutines:
		return "routines"
	case secClasses:
		return "classes"
	case secTypes:
		return "types"
	case secNamespaces:
		return "namespaces"
	case secMacros:
		return "macros"
	}
	return "unknown"
}

// castagnoli is the CRC-32C table; Castagnoli has hardware support on
// every platform the toolchain targets.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// binWriter interns strings and encodes primitives into per-section
// buffers.
type binWriter struct {
	interned map[string]uint64
	table    []string
	scratch  [binary.MaxVarintLen64]byte
}

func newBinWriter() *binWriter {
	return &binWriter{interned: make(map[string]uint64, 256)}
}

// str interns s and returns its table index.
func (e *binWriter) str(s string) uint64 {
	if idx, ok := e.interned[s]; ok {
		return idx
	}
	idx := uint64(len(e.table))
	e.interned[s] = idx
	e.table = append(e.table, s)
	return idx
}

func (e *binWriter) putUvarint(b *bytes.Buffer, v uint64) {
	b.Write(AppendUvarint(e.scratch[:0], v))
}

func (e *binWriter) putVarint(b *bytes.Buffer, v int64) {
	b.Write(AppendVarint(e.scratch[:0], v))
}

func (e *binWriter) putStr(b *bytes.Buffer, s string) {
	e.putUvarint(b, e.str(s))
}

func (e *binWriter) putBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

func (e *binWriter) putRef(b *bytes.Buffer, r Ref) {
	e.putStr(b, r.Prefix)
	e.putVarint(b, int64(r.ID))
}

func (e *binWriter) putLoc(b *bytes.Buffer, l Loc) {
	e.putRef(b, l.File)
	e.putVarint(b, int64(l.Line))
	e.putVarint(b, int64(l.Col))
}

func (e *binWriter) putPos(b *bytes.Buffer, p Pos) {
	e.putLoc(b, p.HeaderBegin)
	e.putLoc(b, p.HeaderEnd)
	e.putLoc(b, p.BodyBegin)
	e.putLoc(b, p.BodyEnd)
}

// WriteBinary serializes the database in the binary encoding. The
// bytes are deterministic: the same model always encodes identically,
// so content-addressed caches may key on them. Defaultable fields are
// written in the same canonical form the ASCII writer emits (racs NA,
// rkind fun, rvirt no, ...), so a model and its ASCII round-trip
// encode to identical binary bytes.
func (p *PDB) WriteBinary(w io.Writer) error {
	e := newBinWriter()

	var files, templates, routines, classes, types, namespaces, macros bytes.Buffer

	e.putUvarint(&files, uint64(len(p.Files)))
	for _, f := range p.Files {
		e.putVarint(&files, int64(f.ID))
		e.putStr(&files, f.Name)
		e.putBool(&files, f.System)
		e.putUvarint(&files, uint64(len(f.Includes)))
		for _, inc := range f.Includes {
			e.putRef(&files, inc)
		}
	}

	e.putUvarint(&templates, uint64(len(p.Templates)))
	for _, t := range p.Templates {
		e.putVarint(&templates, int64(t.ID))
		e.putStr(&templates, t.Name)
		e.putLoc(&templates, t.Loc)
		e.putStr(&templates, t.Kind)
		e.putRef(&templates, t.Class)
		e.putRef(&templates, t.Namespace)
		e.putStr(&templates, naEmpty(t.Access))
		e.putStr(&templates, oneLine(t.Text))
		e.putPos(&templates, t.Pos)
	}

	e.putUvarint(&routines, uint64(len(p.Routines)))
	for _, r := range p.Routines {
		e.putVarint(&routines, int64(r.ID))
		e.putStr(&routines, r.Name)
		e.putLoc(&routines, r.Loc)
		e.putRef(&routines, r.Class)
		e.putRef(&routines, r.Namespace)
		e.putStr(&routines, orNA(r.Access))
		e.putRef(&routines, r.Signature)
		e.putStr(&routines, orDefault(r.Linkage, "C++"))
		e.putStr(&routines, orNA(r.Storage))
		e.putStr(&routines, orDefault(r.Virtual, "no"))
		e.putStr(&routines, orDefault(r.Kind, "fun"))
		e.putRef(&routines, r.Template)
		e.putBool(&routines, r.Static)
		e.putBool(&routines, r.Inline)
		e.putBool(&routines, r.Const)
		e.putUvarint(&routines, uint64(len(r.Calls)))
		for _, c := range r.Calls {
			e.putRef(&routines, c.Callee)
			e.putBool(&routines, c.Virtual)
			e.putLoc(&routines, c.Loc)
		}
		e.putPos(&routines, r.Pos)
	}

	e.putUvarint(&classes, uint64(len(p.Classes)))
	for _, c := range p.Classes {
		e.putVarint(&classes, int64(c.ID))
		e.putStr(&classes, c.Name)
		e.putLoc(&classes, c.Loc)
		e.putStr(&classes, orDefault(c.Kind, "class"))
		e.putRef(&classes, c.Parent)
		e.putRef(&classes, c.Namespace)
		e.putStr(&classes, naEmpty(c.Access))
		e.putRef(&classes, c.Template)
		e.putBool(&classes, c.Specialization)
		e.putBool(&classes, c.Instantiation)
		e.putUvarint(&classes, uint64(len(c.Bases)))
		for _, b := range c.Bases {
			e.putStr(&classes, b.Access)
			e.putBool(&classes, b.Virtual)
			e.putRef(&classes, b.Class)
			e.putLoc(&classes, b.Loc)
		}
		e.putUvarint(&classes, uint64(len(c.Friends)))
		for _, fr := range c.Friends {
			e.putStr(&classes, fr)
		}
		e.putUvarint(&classes, uint64(len(c.Funcs)))
		for _, f := range c.Funcs {
			e.putRef(&classes, f.Routine)
			e.putLoc(&classes, f.Loc)
		}
		e.putUvarint(&classes, uint64(len(c.Members)))
		for _, m := range c.Members {
			e.putStr(&classes, m.Name)
			e.putLoc(&classes, m.Loc)
			e.putStr(&classes, orNA(m.Access))
			e.putStr(&classes, orDefault(m.Kind, "var"))
			e.putRef(&classes, m.Type)
			e.putBool(&classes, m.Static)
		}
		e.putPos(&classes, c.Pos)
	}

	e.putUvarint(&types, uint64(len(p.Types)))
	for _, t := range p.Types {
		e.putVarint(&types, int64(t.ID))
		e.putStr(&types, t.Name)
		e.putStr(&types, t.Kind)
		e.putStr(&types, t.IntKind)
		e.putRef(&types, t.Elem)
		e.putRef(&types, t.Tref)
		e.putUvarint(&types, uint64(len(t.Qual)))
		for _, q := range t.Qual {
			e.putStr(&types, q)
		}
		e.putRef(&types, t.Class)
		e.putRef(&types, t.Enum)
		e.putRef(&types, t.Ret)
		e.putUvarint(&types, uint64(len(t.Args)))
		for _, a := range t.Args {
			e.putRef(&types, a)
		}
		e.putBool(&types, t.Ellipsis)
		e.putVarint(&types, t.ArrayLen)
	}

	e.putUvarint(&namespaces, uint64(len(p.Namespaces)))
	for _, n := range p.Namespaces {
		e.putVarint(&namespaces, int64(n.ID))
		e.putStr(&namespaces, n.Name)
		e.putLoc(&namespaces, n.Loc)
		e.putRef(&namespaces, n.Parent)
		e.putStr(&namespaces, n.Alias)
		e.putUvarint(&namespaces, uint64(len(n.Members)))
		for _, m := range n.Members {
			e.putStr(&namespaces, m)
		}
	}

	e.putUvarint(&macros, uint64(len(p.Macros)))
	for _, m := range p.Macros {
		e.putVarint(&macros, int64(m.ID))
		e.putStr(&macros, m.Name)
		e.putLoc(&macros, m.Loc)
		e.putStr(&macros, orDefault(m.Kind, "def"))
		e.putStr(&macros, oneLine(m.Text))
	}

	// The string table is complete only now that every item payload
	// has been interned through it.
	var strs bytes.Buffer
	e.putUvarint(&strs, uint64(len(e.table)))
	for _, s := range e.table {
		e.putUvarint(&strs, uint64(len(s)))
		strs.WriteString(s)
	}

	sections := []struct {
		kind    byte
		payload []byte
	}{
		{secStrings, strs.Bytes()},
		{secFiles, files.Bytes()},
		{secTemplates, templates.Bytes()},
		{secRoutines, routines.Bytes()},
		{secClasses, classes.Bytes()},
		{secTypes, types.Bytes()},
		{secNamespaces, namespaces.Bytes()},
		{secMacros, macros.Bytes()},
	}

	var hdr bytes.Buffer
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], BinaryVersion)
	hdr.Write(u16[:])
	binary.LittleEndian.PutUint16(u16[:], 0) // flags, reserved
	hdr.Write(u16[:])
	e.putUvarint(&hdr, uint64(len(sections)))
	var u32 [4]byte
	for _, s := range sections {
		hdr.WriteByte(s.kind)
		e.putUvarint(&hdr, uint64(len(s.payload)))
		binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(s.payload, castagnoli))
		hdr.Write(u32[:])
	}

	if _, err := io.WriteString(w, BinaryMagic); err != nil {
		return err
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(hdr.Bytes(), castagnoli))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s.payload); err != nil {
			return err
		}
	}
	return nil
}
