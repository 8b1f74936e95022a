package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// encodeStream serialises recs (whose wide records index ovf).
func encodeStream(t testing.TB, recs []Rec, ovf *Overflow) []byte {
	t.Helper()
	buf := &seekBuffer{}
	w, err := NewWriter(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i], ovf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.data
}

// FuzzFileReader feeds arbitrary bytes to the trace decoder. It must never
// panic, and a stream it accepts must re-encode to exactly the bytes it
// read: the decoder accepts only what Writer produces, so no field can be
// lost or invented on the way through. The committed corpus lives in
// testdata/fuzz/FuzzFileReader.
func FuzzFileReader(f *testing.F) {
	recs, ovf := sampleStream()
	sample := encodeStream(f, recs, ovf)
	f.Add(sample)
	f.Add(encodeStream(f, nil, nil))
	short := bytes.Clone(sample)
	binary.LittleEndian.PutUint64(short[8:], 5) // promises more than it holds
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var got []Rec
		var rec Rec
		for r.Next(&rec) {
			got = append(got, rec)
		}
		if r.Err() != nil {
			return
		}
		again := encodeStream(t, got, r.Overflow())
		if n := len(again); n > len(data) || !bytes.Equal(again, data[:n]) {
			t.Fatalf("accepted %d records that re-encode differently:\nread %x\n got %x", len(got), data, again)
		}
	})
}

// TestCodecRejectsNonCanonical: every field the writer never produces is
// a decode error naming the record, not a silently altered record.
func TestCodecRejectsNonCanonical(t *testing.T) {
	recs, ovf := sampleStream()
	const rec = 16 + recWireSize + 8 // offset of record 1 (the branch)
	for name, corrupt := range map[string]func(b []byte){
		"sequence number":      func(b []byte) { b[rec] = 7 },
		"unknown opcode":       func(b []byte) { b[rec+24] = 0xff },
		"destination count":    func(b []byte) { b[rec+25] = 17 },
		"taken byte":           func(b []byte) { b[rec+36] = 2 },
		"reserved byte":        func(b []byte) { b[rec+37] = 1 },
		"branch address":       func(b []byte) { b[rec+28] = 1 },
		"unused register slot": func(b []byte) { b[rec+40] = 3 },
		"register out of range": func(b []byte) {
			b[rec+56] = 64 // source 0 of the branch
		},
		"unused value slot": func(b []byte) { b[rec+60+8*5] = 1 },
	} {
		data := encodeStream(t, recs, ovf)
		corrupt(data)
		r, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var got Rec
		n := 0
		for r.Next(&got) {
			n++
		}
		if n != 1 || r.Err() == nil {
			t.Errorf("%s: read %d records, err %v; want record 1 rejected", name, n, r.Err())
		}
	}
}
