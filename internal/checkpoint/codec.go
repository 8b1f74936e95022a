// Package checkpoint provides SimPoint-style architectural checkpoints
// for the functional emulator and the content-addressed store the sampled
// simulation mode restores them from.
//
// A checkpoint is an emu.Snapshot — registers, PC, dynamic instruction
// count, halt flag and the resident memory page set — serialized through
// a versioned binary codec and stored keyed by (workload, instruction
// offset) with a SHA-256 content hash verified on every load. Because
// the emulator is deterministic, restoring the checkpoint at offset N
// and continuing execution reproduces the instruction stream of a fresh
// emulation bit-for-bit from N onward; that invariant is what lets the
// sampling driver in internal/runner stitch per-interval measurements
// into a whole-run estimate.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dlvp/internal/emu"
	"dlvp/internal/isa"
)

// codecMagic opens every encoded checkpoint ("DLVPCKPT" as bytes).
var codecMagic = [8]byte{'D', 'L', 'V', 'P', 'C', 'K', 'P', 'T'}

// codecVersion is the current serialization format. Decoders reject
// other versions rather than guessing at layouts.
const codecVersion = uint32(1)

// Decode errors. They are sentinel values so store consumers (and tests)
// can distinguish corruption classes with errors.Is.
var (
	ErrBadMagic   = errors.New("checkpoint: bad magic (not a checkpoint)")
	ErrBadVersion = errors.New("checkpoint: unsupported codec version")
	ErrTruncated  = errors.New("checkpoint: truncated encoding")
	// ErrNonCanonical marks a well-formed encoding that Encode never
	// writes: a halt byte other than 0 or 1, or page numbers that are
	// not strictly ascending.
	ErrNonCanonical = errors.New("checkpoint: non-canonical encoding")
)

// headerSize is the fixed-size prefix: magic, version, regs, pc, seq,
// halt flag and the page count.
const headerSize = 8 + 4 + isa.NumRegs*8 + 8 + 8 + 1 + 4

// pageRecSize is one serialized page: page number plus raw page bytes.
const pageRecSize = 8 + emu.PageSize

// EncodedSize returns the exact encoding size for a snapshot with
// nPages resident pages.
func EncodedSize(nPages int) int { return headerSize + nPages*pageRecSize }

// Encode serializes s into the version-1 binary format: a fixed header
// (magic, version, register file, PC, seq, halt flag, page count)
// followed by the resident pages in ascending page-number order, each as
// (page number, raw PageSize bytes). The page ordering makes the
// encoding canonical: equal architectural states encode to equal bytes,
// so the store's content hash doubles as a state fingerprint.
func Encode(s *emu.Snapshot) []byte {
	nums := s.Mem.PageNums()
	buf := make([]byte, 0, EncodedSize(len(nums)))
	buf = append(buf, codecMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, codecVersion)
	for _, r := range s.Regs {
		buf = binary.LittleEndian.AppendUint64(buf, r)
	}
	buf = binary.LittleEndian.AppendUint64(buf, s.PC)
	buf = binary.LittleEndian.AppendUint64(buf, s.Seq)
	if s.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nums)))
	for _, pn := range nums {
		buf = binary.LittleEndian.AppendUint64(buf, pn)
		buf = append(buf, s.Mem.PageBytes(pn)...)
	}
	return buf
}

// Decode parses an encoding produced by Encode into a fresh Snapshot
// (the caller owns it). It accepts only what Encode writes, so a decoded
// snapshot re-encodes to the same bytes: it fails with ErrBadMagic,
// ErrBadVersion or ErrTruncated on malformed input and with
// ErrNonCanonical on any other byte Encode would not produce.
func Decode(enc []byte) (*emu.Snapshot, error) {
	if len(enc) < headerSize {
		if len(enc) < 8 || [8]byte(enc[:8]) != codecMagic {
			return nil, ErrBadMagic
		}
		return nil, ErrTruncated
	}
	if [8]byte(enc[:8]) != codecMagic {
		return nil, ErrBadMagic
	}
	off := 8
	ver := binary.LittleEndian.Uint32(enc[off:])
	off += 4
	if ver != codecVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, ver, codecVersion)
	}
	s := &emu.Snapshot{Mem: emu.NewMemory()}
	for i := range s.Regs {
		s.Regs[i] = binary.LittleEndian.Uint64(enc[off:])
		off += 8
	}
	s.PC = binary.LittleEndian.Uint64(enc[off:])
	off += 8
	s.Seq = binary.LittleEndian.Uint64(enc[off:])
	off += 8
	if enc[off] > 1 {
		return nil, fmt.Errorf("%w: halt byte %d", ErrNonCanonical, enc[off])
	}
	s.Halted = enc[off] == 1
	off++
	nPages := int(binary.LittleEndian.Uint32(enc[off:]))
	off += 4
	if len(enc) != headerSize+nPages*pageRecSize {
		return nil, ErrTruncated
	}
	var prev uint64
	for i := 0; i < nPages; i++ {
		pn := binary.LittleEndian.Uint64(enc[off:])
		off += 8
		// Strictly ascending: a repeated page would overwrite the first
		// and leave fewer resident pages than the header counts.
		if i > 0 && pn <= prev {
			return nil, fmt.Errorf("%w: page %#x after page %#x", ErrNonCanonical, pn, prev)
		}
		prev = pn
		s.Mem.SetPageBytes(pn, enc[off:off+emu.PageSize])
		off += emu.PageSize
	}
	return s, nil
}
