package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dlvp/internal/isa"
)

// Binary trace format: a 16-byte header (magic, version, record count)
// followed by fixed-width little-endian records. The format exists so
// traces can be captured once and replayed into the timing model or
// external tooling without re-running the emulator.
const (
	traceMagic   = 0x50564c44 // "DLVP"
	traceVersion = 1
)

// recWireSize is the fixed on-disk record size, excluding the trailing
// branch-target word: see Writer.Write for the layout.
const recWireSize = 8 + 8 + 8 + 1 + 1 + 1 + 1 + 8 + 1 + 1 + 2 +
	MaxDests + MaxSrcs + MaxDests*8

// Writer serialises dynamic records.
type Writer struct {
	w     *bufio.Writer
	count uint64
	base  io.WriteSeeker
}

// NewWriter returns a Writer emitting to ws. The header is finalised by
// Close (the record count is back-patched), so ws must be seekable.
func NewWriter(ws io.WriteSeeker) (*Writer, error) {
	w := &Writer{w: bufio.NewWriter(ws), base: ws}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	// count written on Close
	if _, err := w.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return w, nil
}

// Write appends one record. ovf is the table of the stream r comes from
// (nil when it has no wide records). The record's sequence number is its
// position in the file, and a branch's target, which r keeps in Addr, goes
// to the target word.
func (w *Writer) Write(r *Rec, ovf *Overflow) error {
	var buf [recWireSize + 8]byte
	o := 0
	put64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[o:], v); o += 8 }
	addr, target := r.Addr, uint64(0)
	if r.Op.IsBranch() {
		addr, target = 0, r.Addr
	}
	put64(w.count)
	put64(r.PC)
	put64(r.Next)
	buf[o] = uint8(r.Op)
	o++
	buf[o] = r.NDst
	o++
	buf[o] = r.NSrc
	o++
	buf[o] = r.Bytes
	o++
	put64(addr)
	if r.Taken {
		buf[o] = 1
	}
	o++
	o++ // reserved
	o += 2
	for i := 0; i < int(r.NDst); i++ {
		buf[o+i] = uint8(r.DestReg(i, ovf))
	}
	o += MaxDests
	for i := 0; i < MaxSrcs; i++ {
		buf[o] = uint8(r.Src[i])
		o++
	}
	for i := 0; i < MaxDests; i++ {
		switch {
		case i < InlineDests:
			put64(r.Vals[i])
		case i < int(r.NDst):
			put64(r.DestValue(i, ovf))
		default:
			o += 8
		}
	}
	// The branch target trails the fixed block as one more 64-bit word.
	put64(target)
	if _, err := w.w.Write(buf[:]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close flushes and back-patches the record count.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if _, err := w.base.Seek(8, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.count)
	_, err := w.base.Write(cnt[:])
	return err
}

// FileReader streams records from a serialised trace; it implements Reader.
// It accepts exactly the records Writer produces, so a stream it reads
// re-encodes to the same bytes; anything else is a decode error.
type FileReader struct {
	r      *bufio.Reader
	remain uint64
	total  uint64
	err    error
	ovf    Overflow
}

// NewFileReader validates the header and returns a streaming reader.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != traceMagic {
		return nil, fmt.Errorf("trace: bad magic 0x%08x (want 0x%08x)", m, traceMagic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (reader supports %d)", v, traceVersion)
	}
	total := binary.LittleEndian.Uint64(hdr[8:])
	return &FileReader{r: br, remain: total, total: total}, nil
}

// Err returns the first decode error encountered (nil on clean EOF).
func (f *FileReader) Err() error { return f.err }

// Overflow returns the table the decoded wide records index (see
// OverflowOf).
func (f *FileReader) Overflow() *Overflow { return &f.ovf }

// Next implements Reader.
func (f *FileReader) Next(rec *Rec) bool {
	if f.remain == 0 || f.err != nil {
		return false
	}
	pos := f.total - f.remain
	var buf [recWireSize + 8]byte
	if _, err := io.ReadFull(f.r, buf[:]); err != nil {
		// Name the failing record so a corrupt capture is diagnosable: a
		// clean EOF here still means the header promised more records than
		// the file holds (count mismatch), never a silent end-of-stream.
		f.err = fmt.Errorf("trace: truncated record %d of %d: %w", pos, f.total, err)
		return false
	}
	if err := decodeRec(buf[:], pos, rec, &f.ovf); err != nil {
		f.err = fmt.Errorf("trace: corrupt record %d of %d: %w", pos, f.total, err)
		return false
	}
	f.remain--
	return true
}

// decodeRec fills rec from one wire record at stream position pos,
// appending a wide record's extra destinations to ovf. It rejects every
// field Writer would not have produced: a wrong sequence number, an unknown
// opcode, counts or registers out of range, and nonzero bytes in unused
// slots.
func decodeRec(buf []byte, pos uint64, rec *Rec, ovf *Overflow) error {
	o := 0
	get64 := func() uint64 { v := binary.LittleEndian.Uint64(buf[o:]); o += 8; return v }
	if seq := get64(); seq != pos {
		return fmt.Errorf("sequence number %d", seq)
	}
	*rec = Rec{}
	rec.PC = get64()
	rec.Next = get64()
	rec.Op, rec.NDst, rec.NSrc, rec.Bytes = isa.Op(buf[o]), buf[o+1], buf[o+2], buf[o+3]
	o += 4
	if int(rec.Op) >= isa.NumOps {
		return fmt.Errorf("unknown opcode %d", rec.Op)
	}
	if rec.NDst > MaxDests || rec.NSrc > MaxSrcs {
		return fmt.Errorf("%d destinations and %d sources", rec.NDst, rec.NSrc)
	}
	rec.Flags = rec.Op.Flags()
	rec.Addr = get64()
	if buf[o] > 1 || buf[o+1] != 0 || buf[o+2] != 0 || buf[o+3] != 0 {
		return fmt.Errorf("flag bytes % x", buf[o:o+4])
	}
	rec.Taken = buf[o] == 1
	o += 4
	var dst [MaxDests]isa.Reg
	var vals [MaxDests]uint64
	for i := range dst {
		dst[i] = isa.Reg(buf[o+i])
	}
	o += MaxDests
	for i := range rec.Src {
		rec.Src[i] = isa.Reg(buf[o+i])
	}
	o += MaxSrcs
	for i := range vals {
		vals[i] = get64()
	}
	target := get64()
	if err := checkRegs("destination", dst[:], int(rec.NDst)); err != nil {
		return err
	}
	if err := checkRegs("source", rec.Src[:], int(rec.NSrc)); err != nil {
		return err
	}
	for i := max(InlineDests, int(rec.NDst)); i < MaxDests; i++ {
		if vals[i] != 0 {
			return fmt.Errorf("value in unused slot %d", i)
		}
	}
	if rec.Op.IsBranch() {
		if rec.Addr != 0 {
			return fmt.Errorf("branch with address %#x", rec.Addr)
		}
		rec.Addr = target
	} else if target != 0 {
		return fmt.Errorf("non-branch with target %#x", target)
	}
	copy(rec.Dst[:], dst[:])
	copy(rec.Vals[:], vals[:])
	if rec.NDst > InlineDests {
		ovf.Add(rec, dst[:rec.NDst], vals[:rec.NDst])
	}
	return nil
}

// checkRegs rejects a register slot that names no architectural register,
// or an unused slot (index n and up) that is not zero.
func checkRegs(kind string, regs []isa.Reg, n int) error {
	for i, r := range regs {
		if (i < n && int(r) >= isa.NumRegs) || (i >= n && r != 0) {
			return fmt.Errorf("%s slot %d holds register %d", kind, i, r)
		}
	}
	return nil
}
