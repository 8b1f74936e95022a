package trace

import (
	"bytes"
	"io"
	"testing"

	"dlvp/internal/isa"
)

// seekBuffer adapts bytes.Buffer into an io.WriteSeeker for tests.
type seekBuffer struct {
	data []byte
	pos  int
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if s.pos+len(p) > len(s.data) {
		grown := make([]byte, s.pos+len(p))
		copy(grown, s.data)
		s.data = grown
	}
	copy(s.data[s.pos:], p)
	s.pos += len(p)
	return len(p), nil
}

func (s *seekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.pos = int(off)
	case io.SeekCurrent:
		s.pos += int(off)
	case io.SeekEnd:
		s.pos = len(s.data) + int(off)
	}
	return int64(s.pos), nil
}

func sampleRecs() []Rec {
	recs, _ := sampleStream()
	return recs
}

// sampleStream returns the sample records and the overflow table their
// 16-destination LDM indexes.
func sampleStream() ([]Rec, *Overflow) {
	r1 := Rec{PC: 0x400000, Next: 0x400004, Op: isa.LDP, Flags: isa.LDP.Flags(), NDst: 2, NSrc: 1,
		Addr: 0x1000, Bytes: 16}
	r1.Dst[0], r1.Dst[1] = 4, 5
	r1.Src[0] = 1
	r1.Vals[0], r1.Vals[1] = 111, 222
	r2 := Rec{PC: 0x400004, Next: 0x400020, Op: isa.BEQ, Flags: isa.BEQ.Flags(), NSrc: 2,
		Taken: true, Addr: 0x400020}
	r2.Src[0], r2.Src[1] = 4, 5
	r3 := Rec{PC: 0x400020, Next: 0x400024, Op: isa.LDM, Flags: isa.LDM.Flags(), NDst: 16, NSrc: 1,
		Addr: 0x2000, Bytes: 128}
	var dst [16]isa.Reg
	var vals [16]uint64
	for i := 0; i < 16; i++ {
		dst[i] = isa.Reg(i)
		vals[i] = uint64(i * 7)
	}
	copy(r3.Dst[:], dst[:])
	copy(r3.Vals[:], vals[:])
	ovf := &Overflow{}
	ovf.Add(&r3, dst[:], vals[:])
	return []Rec{r1, r2, r3}, ovf
}

func TestCodecRoundTrip(t *testing.T) {
	buf := &seekBuffer{}
	w, err := NewWriter(buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, ovf := sampleStream()
	for i := range recs {
		if err := w.Write(&recs[i], ovf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewFileReader(bytes.NewReader(buf.data))
	if err != nil {
		t.Fatal(err)
	}
	var got Rec
	for i := range recs {
		if !r.Next(&got) {
			t.Fatalf("record %d missing: %v", i, r.Err())
		}
		if got != recs[i] {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, recs[i])
		}
		for j := 0; j < int(got.NDst); j++ {
			if got.DestReg(j, r.Overflow()) != recs[i].DestReg(j, ovf) ||
				got.DestValue(j, r.Overflow()) != recs[i].DestValue(j, ovf) {
				t.Fatalf("record %d destination %d mismatch", i, j)
			}
		}
	}
	if r.Next(&got) {
		t.Error("extra record after end")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF expected, got %v", r.Err())
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := NewFileReader(bytes.NewReader([]byte("not a trace file....."))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewFileReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCodecTruncation(t *testing.T) {
	buf := &seekBuffer{}
	w, _ := NewWriter(buf)
	recs, ovf := sampleStream()
	for i := range recs {
		_ = w.Write(&recs[i], ovf)
	}
	_ = w.Close()
	// Chop the last record in half.
	r, err := NewFileReader(bytes.NewReader(buf.data[:len(buf.data)-40]))
	if err != nil {
		t.Fatal(err)
	}
	var rec Rec
	n := 0
	for r.Next(&rec) {
		n++
	}
	if n != len(recs)-1 {
		t.Errorf("read %d records from truncated file", n)
	}
	if r.Err() == nil {
		t.Error("truncation must surface an error")
	}
}

// The emulator's stream must round-trip bit-exactly through the codec.
func TestCodecEmulatorRoundTrip(t *testing.T) {
	// A tiny program exercising loads, stores, branches, multi-dest ops.
	recs, ovf := sampleStream()
	buf := &seekBuffer{}
	w, _ := NewWriter(buf)
	sr := &SliceReader{Recs: recs, Ovf: ovf}
	var rec Rec
	for sr.Next(&rec) {
		if err := w.Write(&rec, sr.Overflow()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(bytes.NewReader(buf.data))
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(fr, 0)
	if len(got) != len(recs) {
		t.Fatalf("count %d != %d", len(got), len(recs))
	}
}
