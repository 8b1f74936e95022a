package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// encodeSample serialises sampleRecs through the Writer and returns the
// raw bytes for corruption by the error-path tests.
func encodeSample(t *testing.T) []byte {
	t.Helper()
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
	return buf.data
}

// TestCodecTruncatedHeader: every header prefix shorter than 16 bytes is
// rejected with a descriptive wrapped error, never a panic or a reader.
func TestCodecTruncatedHeader(t *testing.T) {
	data := encodeSample(t)
	for n := 0; n < 16; n++ {
		r, err := NewFileReader(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("header prefix of %d bytes accepted: %+v", n, r)
		}
		if !strings.Contains(err.Error(), "short header") {
			t.Errorf("prefix %d: error %q does not name the short header", n, err)
		}
		// The underlying io error must survive wrapping so callers can
		// distinguish truncation from malformed content.
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("prefix %d: error %v hides the io cause", n, err)
		}
	}
}

// TestCodecWrongMagic: a corrupt magic word is reported with both the
// observed and expected values so the operator can spot endianness or
// file-type mixups at a glance.
func TestCodecWrongMagic(t *testing.T) {
	data := encodeSample(t)
	binary.LittleEndian.PutUint32(data[0:], 0xdeadbeef)
	_, err := NewFileReader(bytes.NewReader(data))
	if err == nil {
		t.Fatal("wrong magic accepted")
	}
	for _, want := range []string{"bad magic", "0xdeadbeef", "0x50564c44"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestCodecUnsupportedVersion: a future format version is refused up
// front, naming both the file's version and the reader's.
func TestCodecUnsupportedVersion(t *testing.T) {
	data := encodeSample(t)
	binary.LittleEndian.PutUint32(data[4:], 7)
	_, err := NewFileReader(bytes.NewReader(data))
	if err == nil {
		t.Fatal("unsupported version accepted")
	}
	for _, want := range []string{"unsupported version 7", "supports 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestCodecRecordCountMismatch: a header promising more records than the
// file holds surfaces an error naming the failing record — a clean cut at
// a record boundary must not read as a silent EOF.
func TestCodecRecordCountMismatch(t *testing.T) {
	data := encodeSample(t)
	binary.LittleEndian.PutUint64(data[8:], 5) // file actually holds 3

	r, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rec Rec
	n := 0
	for r.Next(&rec) {
		n++
	}
	if n != len(sampleRecs()) {
		t.Errorf("read %d records, want %d intact ones", n, len(sampleRecs()))
	}
	err = r.Err()
	if err == nil {
		t.Fatal("count mismatch read as clean EOF")
	}
	if !strings.Contains(err.Error(), "record 3 of 5") {
		t.Errorf("error %q does not locate the missing record", err)
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error %v hides the io cause", err)
	}
}

// TestCodecMidRecordTruncationIndex: chopping inside a record reports
// that record's index, not just a generic failure.
func TestCodecMidRecordTruncationIndex(t *testing.T) {
	data := encodeSample(t)
	r, err := NewFileReader(bytes.NewReader(data[:len(data)-40]))
	if err != nil {
		t.Fatal(err)
	}
	var rec Rec
	for r.Next(&rec) {
	}
	err = r.Err()
	if err == nil {
		t.Fatal("mid-record truncation read as clean EOF")
	}
	if !strings.Contains(err.Error(), "record 2 of 3") {
		t.Errorf("error %q does not locate the truncated record", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error %v hides io.ErrUnexpectedEOF", err)
	}
}

// TestCodecErrStickyAfterFailure: after a decode error, Next keeps
// returning false and Err keeps returning the first failure — callers
// polling in a loop cannot spin or observe a second, different error.
func TestCodecErrStickyAfterFailure(t *testing.T) {
	data := encodeSample(t)
	r, err := NewFileReader(bytes.NewReader(data[:len(data)-40]))
	if err != nil {
		t.Fatal(err)
	}
	var rec Rec
	for r.Next(&rec) {
	}
	first := r.Err()
	for i := 0; i < 3; i++ {
		if r.Next(&rec) {
			t.Fatal("Next succeeded after a decode error")
		}
	}
	if r.Err() != first {
		t.Errorf("Err changed after failure: %v -> %v", first, r.Err())
	}
}
