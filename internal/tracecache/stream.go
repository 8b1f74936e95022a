package tracecache

import (
	"slices"

	"dlvp/internal/trace"
)

// A captured stream keeps each record as a 4-byte header followed by its
// non-zero dynamic words. The header holds one flag per dynamic field
// below the index of the record's template, the static part it shares
// with the other records of its instruction.
const (
	hasAddr  = 1 << iota // the Addr word follows
	hasVal0              // the Vals[0] word follows
	hasVal1              // the Vals[1] word follows
	hasExt               // the Ext word follows
	isTaken              // Taken; no word
	flagBits = iota

	// maxTemplates bounds the template indexes a header can hold.
	maxTemplates = 1 << (32 - flagBits)
	// wordPad zero words end every stream, so a decode can look at the
	// four words from its cursor without a bounds test per field.
	wordPad = 4
	// frontSize is the number of direct-mapped slots, indexed by PC, in
	// front of an encoder's template map.
	frontSize = 1024
)

// stream is one captured stream, never written once built.
type stream struct {
	tmpl  []trace.Rec // static parts: dynamic fields zero
	hdr   []uint32    // per record: template index << flagBits | flags
	words []uint64    // the flagged words in record and field order, then wordPad zeros
	ovf   trace.Overflow
}

// bytes is the stream's size as charged against the budget.
func (s *stream) bytes() int64 {
	return encodedBytes(len(s.hdr), len(s.words), len(s.tmpl), &s.ovf)
}

func encodedBytes(recs, words, tmpls int, ovf *trace.Overflow) int64 {
	return 4*int64(recs) + 8*int64(words) + RecSize*int64(tmpls) + ovf.Bytes()
}

// staticPart returns r with its dynamic fields zeroed: what every record
// of one instruction shares. Only these fields are zeroed, so a record
// whose other fields differ from its PC's template gets a template of its
// own, and any stream replays exactly.
func staticPart(r *trace.Rec) trace.Rec {
	s := *r
	s.Addr, s.Vals, s.Ext, s.Taken = 0, [trace.InlineDests]uint64{}, 0, false
	return s
}

// fits reports whether template t is r's static part: staticPart(r) == *t
// without building it, field by field.
func fits(t, r *trace.Rec) bool {
	return t.PC == r.PC && t.Op == r.Op && t.Flags == r.Flags && t.NDst == r.NDst &&
		t.NSrc == r.NSrc && t.Bytes == r.Bytes && t.Dst == r.Dst && t.Src == r.Src
}

// nz is 1 when v is non-zero and 0 otherwise.
func nz(v uint64) uint32 {
	if v != 0 {
		return 1
	}
	return 0
}

// encoder builds a stream of at most a given number of records.
type encoder struct {
	s  stream
	n  int // records encoded
	nw int // words written
	// front maps PC bits to 1 + the index of the template last used at a
	// PC there (0: none); byPC holds every PC's latest template.
	front [frontSize]uint32
	byPC  map[uint64]uint32
}

// newEncoder presizes the headers for instrs records and the words for
// two per record, more than the workloads' streams use; words grow past
// that if a stream needs them.
func newEncoder(instrs int) *encoder {
	return &encoder{
		s:    stream{hdr: make([]uint32, instrs), words: make([]uint64, 2*instrs+wordPad)},
		byPC: make(map[uint64]uint32),
	}
}

// add encodes rec as the next record. It reports false, encoding nothing,
// when the stream already holds maxTemplates templates and rec needs
// another.
func (e *encoder) add(rec *trace.Rec) bool {
	idx, ok := e.template(rec)
	if !ok {
		return false
	}
	if len(e.s.words)-e.nw < wordPad {
		g := slices.Grow(e.s.words, len(e.s.words)/2)
		e.s.words = g[:cap(g)]
	}
	// Every field's word is written at the cursor, which moves past it
	// only when the word is non-zero: no branch on the data.
	w := (*[wordPad]uint64)(e.s.words[e.nw:])
	a, v0, v1, x := nz(rec.Addr), nz(rec.Vals[0]), nz(rec.Vals[1]), nz(uint64(rec.Ext))
	w[0] = rec.Addr
	k := a
	w[k&3] = rec.Vals[0]
	k += v0
	w[k&3] = rec.Vals[1]
	k += v1
	w[k&3] = uint64(rec.Ext)
	k += x
	e.nw += int(k)
	h := idx<<flagBits | a*hasAddr | v0*hasVal0 | v1*hasVal1 | x*hasExt
	if rec.Taken {
		h |= isTaken
	}
	e.s.hdr[e.n] = h
	e.n++
	return true
}

// template returns the index of rec's template, adding one when rec's
// static part is not its PC's latest.
func (e *encoder) template(rec *trace.Rec) (uint32, bool) {
	f := &e.front[(rec.PC>>2)&(frontSize-1)]
	if *f != 0 && fits(&e.s.tmpl[*f-1], rec) {
		return *f - 1, true
	}
	idx, ok := e.byPC[rec.PC]
	if !ok || !fits(&e.s.tmpl[idx], rec) {
		if len(e.s.tmpl) >= maxTemplates {
			return 0, false
		}
		idx = uint32(len(e.s.tmpl))
		e.s.tmpl = append(e.s.tmpl, staticPart(rec))
		e.byPC[rec.PC] = idx
	}
	*f = idx + 1
	return idx, true
}

// bytes is what the stream encoded so far would be charged, with ovf as
// its overflow table.
func (e *encoder) bytes(ovf *trace.Overflow) int64 {
	return encodedBytes(e.n, e.nw+wordPad, len(e.s.tmpl), ovf)
}

// finish returns the stream in buffers of exactly what it holds, apart
// from the encoder, with a copy of ovf: a stored stream keeps alive only
// the bytes it is charged.
func (e *encoder) finish(ovf *trace.Overflow) *stream {
	s := &stream{
		tmpl:  slices.Clone(e.s.tmpl),
		hdr:   e.s.hdr[:e.n],
		words: make([]uint64, e.nw+wordPad), // the last add may have filled e.s.words
		ovf:   *ovf,                         // a copy of the table, so the stream does not keep the source alive
	}
	copy(s.words, e.s.words[:e.nw])
	if e.n < len(e.s.hdr) { // the program halted early
		s.hdr = slices.Clone(s.hdr)
	}
	return s
}

// replay reads a stream from its start; each reader has its own cursor.
type replay struct {
	s *stream
	i int // next record
	w int // its first word
}

// Next implements trace.Reader.
func (r *replay) Next(rec *trace.Rec) bool {
	s := r.s
	if r.i >= len(s.hdr) {
		return false
	}
	h := s.hdr[r.i]
	r.i++
	*rec = s.tmpl[h>>flagBits]
	// Each field takes the word at its cursor, masked to zero when its
	// flag is clear, and moves the cursor by the flag: the flags differ
	// from record to record, so a branch per field would mispredict.
	w := (*[wordPad]uint64)(s.words[r.w:])
	a, v0, v1, x := uint64(h&hasAddr), uint64(h/hasVal0&1), uint64(h/hasVal1&1), uint64(h/hasExt&1)
	rec.Addr = w[0] & -a
	k := a
	rec.Vals[0] = w[k&3] & -v0
	k += v0
	rec.Vals[1] = w[k&3] & -v1
	k += v1
	rec.Ext = uint32(w[k&3] & -x)
	rec.Taken = h&isTaken != 0
	r.w += int(k + x)
	return true
}

// Overflow returns the stream's overflow table (see trace.OverflowOf).
func (r *replay) Overflow() *trace.Overflow { return &r.s.ovf }
