// Package trace defines the dynamic instruction record streamed from the
// functional emulator into the timing model and the profiling tools, plus
// the streaming profilers behind the paper's Figure 1 (load-store conflict
// characterisation) and Figure 2 (address/value repeatability).
package trace

import (
	"fmt"
	"math"

	"dlvp/internal/isa"
)

// MaxDests is the largest number of destination registers a single record can
// carry (ARM LDM writes up to 16 general-purpose registers).
const MaxDests = isa.MaxLDMRegs

// InlineDests is how many destinations a record holds inline. Only LDM
// writes more than two registers, so the rest of a wide record lives in its
// stream's Overflow table rather than in every record — the storage
// argument the paper makes against sizing every value-predictor entry for
// multi-destination loads.
const InlineDests = 2

// MaxSrcs is the largest number of source registers (STP: base + index + two
// data registers).
const MaxSrcs = 4

// Rec is one dynamic instruction as observed by the functional emulator.
// It carries everything the timing model and the predictors need: register
// dataflow, the effective address and loaded/stored values for memory
// operations, and the actual control-flow outcome for branches. A record
// holds no pointers and fits in 48 bytes; its position in its stream is its
// dynamic instruction number. The instruction executed after it, if any,
// is at Addr when it is a taken branch and at PC+4 otherwise.
type Rec struct {
	PC uint64
	// Addr is a memory operation's effective (virtual) address and a
	// branch's actual target, taken or not: a branch never touches memory.
	Addr uint64
	// Vals holds the value written into each inline destination register
	// (Vals[i] corresponds to Dst[i]). For stores it holds the stored data
	// words (16 bytes max); STRPOST's updated base is in Vals[1].
	Vals [InlineDests]uint64
	// Ext locates a wide record's destinations past the inline ones in its
	// stream's Overflow table (zero unless NDst > InlineDests).
	Ext uint32

	Op    isa.Op
	Flags isa.Flags // Op.Flags(), filled in by whoever produces the record
	NDst  uint8
	NSrc  uint8
	Bytes uint8 // total bytes a memory operation accesses
	Taken bool  // a branch's actual direction
	Dst   [InlineDests]isa.Reg
	Src   [MaxSrcs]isa.Reg
}

// IsLoad reports whether the record is a load.
func (r *Rec) IsLoad() bool { return r.Flags&isa.FlagLoad != 0 }

// IsStore reports whether the record is a store.
func (r *Rec) IsStore() bool { return r.Flags&isa.FlagStore != 0 }

// IsBranch reports whether the record redirects control flow.
func (r *Rec) IsBranch() bool { return r.Flags&isa.FlagBranch != 0 }

// IsCondBranch reports whether the record is a conditional direct branch.
func (r *Rec) IsCondBranch() bool { return r.Flags&isa.FlagCondBr != 0 }

// IsOrdered reports whether the record carries memory-ordering semantics.
func (r *Rec) IsOrdered() bool { return r.Flags&isa.FlagOrdered != 0 }

// Value returns the first loaded value (the canonical "load value" used by
// single-value predictors).
func (r *Rec) Value() uint64 { return r.Vals[0] }

// Target returns a branch's actual target (valid when IsBranch).
func (r *Rec) Target() uint64 { return r.Addr }

// DestReg returns destination register j (j < NDst). ovf is the table of
// r's stream; only destinations past the inline ones read it.
func (r *Rec) DestReg(j int, ovf *Overflow) isa.Reg {
	if j < InlineDests {
		return r.Dst[j]
	}
	reg, _ := ovf.entry(r, j)
	return reg
}

// DestValue returns the value written into destination register j (j <
// NDst). For most instructions this is Vals[j]; STRPOST is the exception —
// its Vals[0] holds the stored data, so the updated base (its only
// destination) lives in Vals[1].
func (r *Rec) DestValue(j int, ovf *Overflow) uint64 {
	if r.Op == isa.STRPOST {
		return r.Vals[1]
	}
	if j < InlineDests {
		return r.Vals[j]
	}
	_, v := ovf.entry(r, j)
	return v
}

// Overflow is one stream's side table for wide records: the destination
// registers and values past the inline ones, appended in stream order.
// A reader's table only grows, so a copy of the struct is an immutable
// view of every wide record delivered up to that point.
type Overflow struct {
	dst  []isa.Reg
	vals []uint64
}

// Add appends the destinations of r past InlineDests — dst and vals hold
// all NDst of them — and points r.Ext at the new entry. A record with at
// most InlineDests destinations needs no entry.
func (o *Overflow) Add(r *Rec, dst []isa.Reg, vals []uint64) {
	if len(o.dst) > math.MaxUint32 {
		panic("trace: overflow table outgrew its 32-bit offsets")
	}
	r.Ext = uint32(len(o.dst))
	o.dst = append(o.dst, dst[InlineDests:]...)
	o.vals = append(o.vals, vals[InlineDests:]...)
}

// Bytes is the table's size as charged against a byte budget.
func (o *Overflow) Bytes() int64 { return int64(len(o.dst)) + 8*int64(len(o.vals)) }

// entry returns destination j (j >= InlineDests) of wide record r. A table
// lacking the entry means the record was handed on without the table its
// reader built, so entry panics rather than let a caller read zeros.
func (o *Overflow) entry(r *Rec, j int) (isa.Reg, uint64) {
	i := int(r.Ext) + j - InlineDests
	if o == nil || j >= int(r.NDst) || i >= len(o.dst) {
		have := 0
		if o != nil {
			have = len(o.dst)
		}
		panic(fmt.Sprintf("trace: %v at pc %#x: destination %d of %d needs overflow entry %d, but its reader supplied %d",
			r.Op, r.PC, j, r.NDst, i, have))
	}
	return o.dst[i], o.vals[i]
}

// Reader streams dynamic records. Next copies the next record into rec and
// reports whether a record was produced; once it returns false the stream is
// exhausted (program halted or budget reached).
//
// A reader whose stream can hold wide records also implements
// Overflow() *Overflow (see OverflowOf).
type Reader interface {
	Next(rec *Rec) bool
}

// OverflowOf returns the Overflow table of r's stream, or nil when r cannot
// deliver wide records. The pointer is fixed for the reader's lifetime and
// its table covers every record Next has delivered so far.
func OverflowOf(r Reader) *Overflow {
	if o, ok := r.(interface{ Overflow() *Overflow }); ok {
		return o.Overflow()
	}
	return nil
}

// SliceReader serves a recorded stream: Recs plus Ovf, the table its wide
// records index (nil when it has none). A core reads it record by record,
// like any other Reader.
type SliceReader struct {
	Recs []Rec
	Ovf  *Overflow
	pos  int
}

// Next implements Reader.
func (s *SliceReader) Next(rec *Rec) bool {
	if s.pos >= len(s.Recs) {
		return false
	}
	*rec = s.Recs[s.pos]
	s.pos++
	return true
}

// Overflow returns Ovf (see OverflowOf).
func (s *SliceReader) Overflow() *Overflow { return s.Ovf }

// Replay returns a new reader over the same records and table, positioned
// at the first record: one captured stream can feed any number of runs.
func (s *SliceReader) Replay() *SliceReader { return &SliceReader{Recs: s.Recs, Ovf: s.Ovf} }

// Capture drains up to max records from r (all records if max <= 0) into
// a SliceReader that carries r's overflow table, so its wide records
// replay as r delivered them.
func Capture(r Reader, max int) *SliceReader {
	return &SliceReader{Recs: Collect(r, max), Ovf: OverflowOf(r)}
}

// Collect drains up to max records from r (all records if max <= 0). It
// drops r's overflow table, which wide records among them index: a
// SliceReader over them without that table panics at the first
// destination past the inline ones. To replay a stream, use Capture.
func Collect(r Reader, max int) []Rec {
	var out []Rec
	var rec Rec
	for r.Next(&rec) {
		out = append(out, rec)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}
