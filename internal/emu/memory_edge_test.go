package emu

import (
	"bytes"
	"testing"
)

// TestWriteBytesAcrossPages drives a byte-slice write spanning a page
// boundary and reads it back both in bulk and byte-at-a-time.
func TestWriteBytesAcrossPages(t *testing.T) {
	m := NewMemory()
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	base := uint64(pageSize - 3) // 3 bytes in page 0, 7 in page 1
	m.WriteBytes(base, src)

	if m.Pages() != 2 {
		t.Errorf("resident pages = %d, want 2", m.Pages())
	}
	dst := make([]byte, len(src))
	m.ReadBytes(base, dst)
	if !bytes.Equal(dst, src) {
		t.Errorf("ReadBytes = %v, want %v", dst, src)
	}
	for i, want := range src {
		if got := m.ByteAt(base + uint64(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
}

// TestBulkCopiesMatchByteAccess holds WriteBytes and ReadBytes, which copy
// whole page spans, to byte-at-a-time access: the same bytes, and the
// same resident page set (Equal tells a resident zero page from an
// absent one), for spans from empty to several pages long.
func TestBulkCopiesMatchByteAccess(t *testing.T) {
	for _, tc := range []struct{ addr, n uint64 }{
		{100, 0},
		{pageSize - 1, 1},
		{pageSize, pageSize},
		{3, pageSize - 3},
		{pageSize*5 - 7, 3*pageSize + 20},
	} {
		src := make([]byte, tc.n)
		for i := range src {
			src[i] = byte(i%251) + 1
		}
		src = append(src[:tc.n/2], make([]byte, tc.n-tc.n/2)...) // a zero tail still makes its pages resident
		bulk, ref := NewMemory(), NewMemory()
		bulk.WriteBytes(tc.addr, src)
		for i, b := range src {
			ref.SetByteAt(tc.addr+uint64(i), b)
		}
		if !bulk.Equal(ref) {
			t.Errorf("WriteBytes(%#x, %d bytes): %d resident pages differ from byte-at-a-time writes (%d pages)",
				tc.addr, tc.n, bulk.Pages(), ref.Pages())
		}
		// Read a window wider than the write, so it covers absent pages.
		from := tc.addr - min(tc.addr, pageSize+9)
		dst := bytes.Repeat([]byte{0xee}, int(tc.n+3*pageSize))
		bulk.ReadBytes(from, dst)
		for i, got := range dst {
			if want := ref.ByteAt(from + uint64(i)); got != want {
				t.Fatalf("ReadBytes(%#x) byte %d = %d, want %d", from, i, got, want)
			}
		}
		if !bulk.Equal(ref) {
			t.Errorf("ReadBytes(%#x) changed the resident page set", from)
		}
	}
}

// TestReadNeverTouchedPages locks the sparse contract: reads of absent
// pages return zero without materialising the page.
func TestReadNeverTouchedPages(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0x1234_5678, 8); got != 0 {
		t.Errorf("Read from absent page = %#x, want 0", got)
	}
	if got := m.ByteAt(42); got != 0 {
		t.Errorf("ByteAt from absent page = %d, want 0", got)
	}
	dst := []byte{0xaa, 0xbb}
	m.ReadBytes(pageSize*7-1, dst) // spans two absent pages
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("ReadBytes from absent pages = %v, want zeros", dst)
	}
	if m.Pages() != 0 {
		t.Errorf("reads materialised %d pages, want 0", m.Pages())
	}
}

// TestScalarAccessAtPageBoundary exercises the cross-page slow path of
// Read/Write (the emulator's loads and stores) against the fast path.
func TestScalarAccessAtPageBoundary(t *testing.T) {
	const v = uint64(0x1122334455667788)
	for _, size := range []int{2, 4, 8} {
		for back := 1; back < size; back++ {
			m := NewMemory()
			addr := uint64(pageSize - back) // size-back bytes spill into page 1
			m.Write(addr, v, size)
			want := v
			if size < 8 {
				want &= 1<<(8*size) - 1
			}
			if got := m.Read(addr, size); got != want {
				t.Errorf("size %d straddle %d: read %#x, want %#x", size, back, got, want)
			}
			if m.Pages() != 2 {
				t.Errorf("size %d straddle %d: %d pages resident, want 2", size, back, m.Pages())
			}
			// The little-endian byte layout must match byte-at-a-time access.
			for i := 0; i < size; i++ {
				if got, want := m.ByteAt(addr+uint64(i)), byte(v>>(8*i)); got != want {
					t.Errorf("size %d straddle %d byte %d: %#x, want %#x", size, back, i, got, want)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMemory()
	m.Write(100, 0xdead, 8)
	cp := m.Clone()
	if !m.Equal(cp) {
		t.Fatal("clone not Equal to original")
	}
	cp.Write(100, 0xbeef, 8)
	if m.Read(100, 8) != 0xdead {
		t.Error("write to clone visible through the original")
	}
	m.Write(pageSize*3, 1, 1)
	if cp.Pages() != 1 {
		t.Error("page added to original appeared in the clone")
	}
}

// TestEqualDistinguishesResidentZeroPage documents the Equal contract:
// a resident all-zero page differs from an absent one, which is exactly
// what makes snapshot equality a determinism check (identical emulations
// touch identical page sets).
func TestEqualDistinguishesResidentZeroPage(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	if !a.Equal(b) {
		t.Fatal("two empty memories not Equal")
	}
	a.SetByteAt(0, 0) // materialises page 0 with zero contents
	if a.Equal(b) {
		t.Error("resident zero page compared equal to an absent page")
	}
}
