// Package emu implements the functional emulator for the mini ISA. It
// executes a program.Program instruction by instruction and streams dynamic
// trace records, which the cycle-level core model consumes, or fast-forwards
// without building them (CPU.Run) where only the architectural state counts.
package emu

import (
	"encoding/binary"

	"dlvp/internal/program"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// PageSize is the memory's page granularity in bytes; the checkpoint
// store charges each resident page of a checkpoint at this size.
const PageSize = pageSize

type page [pageSize]byte

// Memory is a sparse, page-granular byte-addressable memory. The zero value
// is not usable; call NewMemory or NewMemoryFromProgram.
//
// A Memory is not safe for concurrent use, not even by readers only: every
// access, reads included, updates its cache of the last resident page it
// touched. Clone and Equal never touch that cache, so several goroutines
// may call them on one Memory that nothing writes.
type Memory struct {
	pages map[uint64]*page

	// lastPN and last cache the resident page accessed most recently
	// (last is nil while nothing is cached). An absent page is never cached.
	lastPN uint64
	last   *page
}

// NewMemory returns an empty memory (all bytes read as zero).
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// NewMemoryFromProgram returns a memory initialised with the program's data
// segments. Callers that need an independent committed-state image (the
// timing model) construct their own copy from the same program.
func NewMemoryFromProgram(p *program.Program) *Memory {
	m := NewMemory()
	for _, seg := range p.Data {
		m.WriteBytes(seg.Base, seg.Data)
	}
	return m
}

// pageFor returns the resident page holding addr, creating it when create
// is set; otherwise an absent page yields nil.
func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageShift
	if m.last != nil && m.lastPN == pn {
		return m.last
	}
	pg := m.pages[pn]
	if pg == nil {
		if !create {
			return nil
		}
		pg = new(page)
		m.pages[pn] = pg
	}
	m.lastPN, m.last = pn, pg
	return pg
}

// ByteAt returns the byte at addr.
func (m *Memory) ByteAt(addr uint64) byte {
	pg := m.pageFor(addr, false)
	if pg == nil {
		return 0
	}
	return pg[addr&pageMask]
}

// SetByteAt stores b at addr.
func (m *Memory) SetByteAt(addr uint64, b byte) {
	m.pageFor(addr, true)[addr&pageMask] = b
}

// Read reads size bytes at addr as a little-endian unsigned integer.
// size must be 1, 2, 4 or 8.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if off := addr & pageMask; off+uint64(size) <= pageSize {
		pg := m.pageFor(addr, false)
		if pg == nil {
			return 0
		}
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(pg[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(pg[off:]))
		case 1:
			return uint64(pg[off])
		}
	}
	// An access that straddles a page boundary goes byte by byte.
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.ByteAt(addr+uint64(i)))
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, v uint64, size int) {
	if off := addr & pageMask; off+uint64(size) <= pageSize {
		pg := m.pageFor(addr, true)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(pg[off:], v)
			return
		case 4:
			binary.LittleEndian.PutUint32(pg[off:], uint32(v))
			return
		case 2:
			binary.LittleEndian.PutUint16(pg[off:], uint16(v))
			return
		case 1:
			pg[off] = byte(v)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.SetByteAt(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadBytes copies len(dst) bytes starting at addr into dst, one page
// span at a time; absent pages read as zeros and stay absent.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := min(len(dst), int(pageSize-off))
		if pg := m.pageFor(addr, false); pg != nil {
			copy(dst[:n], pg[off:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+uint64(n)
	}
}

// WriteBytes copies src into memory starting at addr, one page span at a
// time. It makes exactly the pages it writes resident.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		n := copy(m.pageFor(addr, true)[addr&pageMask:], src)
		src, addr = src[n:], addr+uint64(n)
	}
}

// Pages returns the number of resident pages (useful for footprint stats).
func (m *Memory) Pages() int { return len(m.pages) }

// Clone returns a deep copy of the memory (every resident page is
// duplicated, so writes to either side never alias the other). The copy
// starts with an empty page cache.
func (m *Memory) Clone() *Memory {
	out := &Memory{pages: make(map[uint64]*page, len(m.pages))}
	for pn, pg := range m.pages {
		cp := *pg
		out.pages[pn] = &cp
	}
	return out
}

// Equal reports whether m and other hold identical contents: the same
// resident page set with bit-identical bytes. (A resident all-zero page
// is distinguishable from an absent page; determinism makes the page
// sets of two identical emulations match exactly.)
func (m *Memory) Equal(other *Memory) bool {
	if len(m.pages) != len(other.pages) {
		return false
	}
	for pn, pg := range m.pages {
		og := other.pages[pn]
		if og == nil || *pg != *og {
			return false
		}
	}
	return true
}
