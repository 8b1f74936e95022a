package emu

import (
	"maps"
	"testing"

	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// refALU mirrors the emulator's ALU semantics in plain Go; the property
// test cross-checks the interpreter against it on random instruction
// sequences.
func refALU(op isa.Op, a, b uint64, imm int64) uint64 {
	switch op {
	case isa.ADD:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND:
		return a & b
	case isa.ORR:
		return a | b
	case isa.EOR:
		return a ^ b
	case isa.LSL:
		return a << (b & 63)
	case isa.LSR:
		return a >> (b & 63)
	case isa.ASR:
		return uint64(int64(a) >> (b & 63))
	case isa.ADDI:
		return a + uint64(imm)
	case isa.SUBI:
		return a - uint64(imm)
	case isa.ANDI:
		return a & uint64(imm)
	case isa.ORRI:
		return a | uint64(imm)
	case isa.EORI:
		return a ^ uint64(imm)
	case isa.LSLI:
		return a << (uint64(imm) & 63)
	case isa.LSRI:
		return a >> (uint64(imm) & 63)
	case isa.MUL:
		return a * b
	case isa.UDIV:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.UREM:
		if b == 0 {
			return 0
		}
		return a % b
	}
	panic("unhandled")
}

var aluOps = []isa.Op{
	isa.ADD, isa.SUB, isa.AND, isa.ORR, isa.EOR, isa.LSL, isa.LSR, isa.ASR,
	isa.ADDI, isa.SUBI, isa.ANDI, isa.ORRI, isa.EORI, isa.LSLI, isa.LSRI,
	isa.MUL, isa.UDIV, isa.UREM,
}

// TestALUAgainstReference generates random straight-line ALU programs and
// checks every destination value the emulator records against the
// reference model evaluated over shadow registers.
func TestALUAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		s := seed
		next := func(n uint64) uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return (s >> 33) % n
		}
		b := program.NewBuilder("ref")
		var shadow [16]uint64
		// Seed registers x0..x7 with random values via MOVZ.
		for r := 0; r < 8; r++ {
			v := next(1 << 40)
			b.MovImm(isa.Reg(r), v)
			shadow[r] = v
		}
		for i := 0; i < 200; i++ {
			op := aluOps[next(uint64(len(aluOps)))]
			rd := isa.Reg(next(16))
			rn := isa.Reg(next(16))
			rm := isa.Reg(next(16))
			imm := int64(next(1 << 16))
			switch op {
			case isa.ADDI, isa.SUBI, isa.ANDI, isa.ORRI, isa.EORI, isa.LSLI, isa.LSRI:
				b.OpImm(op, rd, rn, imm)
				shadow[rd] = refALU(op, shadow[rn], 0, imm)
			default:
				b.Op3(op, rd, rn, rm)
				shadow[rd] = refALU(op, shadow[rn], shadow[rm], 0)
			}
		}
		b.Halt()
		cpu := New(b.Build())
		cpu.MaxInstrs = 10_000
		var rec trace.Rec
		for cpu.Next(&rec) {
		}
		// Check final architectural state against the shadow model.
		for r := 0; r < 16; r++ {
			if got := cpu.Reg(isa.Reg(r)); got != shadow[r] {
				t.Fatalf("seed %d: x%d = %#x, shadow %#x", seed, r, got, shadow[r])
			}
		}
	}
}

// memPair drives a Memory and a plain shadow model through the same
// accesses. The shadow is a map of bytes plus the set of pages a write
// has made resident; a read makes none. Every read is checked against the
// shadow, and every access against its resident page count.
type memPair struct {
	t     *testing.T
	m     *Memory
	bytes map[uint64]byte
	pages map[uint64]bool
}

func newMemPair(t *testing.T) *memPair {
	return &memPair{t: t, m: NewMemory(), bytes: map[uint64]byte{}, pages: map[uint64]bool{}}
}

// clone pairs p.m.Clone() with a copy of p's shadow.
func (p *memPair) clone() *memPair {
	return &memPair{t: p.t, m: p.m.Clone(), bytes: maps.Clone(p.bytes), pages: maps.Clone(p.pages)}
}

func (p *memPair) write(addr, v uint64, size int) {
	p.t.Helper()
	p.m.Write(addr, v, size)
	for b := 0; b < size; b++ {
		a := addr + uint64(b)
		p.bytes[a] = byte(v >> (8 * b))
		p.pages[a>>pageShift] = true
	}
	p.checkPages()
}

func (p *memPair) read(addr uint64, size int) {
	p.t.Helper()
	var want uint64
	for b := size - 1; b >= 0; b-- {
		want = want<<8 | uint64(p.bytes[addr+uint64(b)])
	}
	if got := p.m.Read(addr, size); got != want {
		p.t.Fatalf("read %d@%#x = %#x, shadow %#x", size, addr, got, want)
	}
	p.checkPages()
}

func (p *memPair) checkPages() {
	p.t.Helper()
	if got, want := p.m.Pages(), len(p.pages); got != want {
		p.t.Fatalf("%d resident pages, shadow %d", got, want)
	}
}

// TestMemoryAgainstShadowMap cross-checks Memory against the shadow model
// on random-sized accesses and on patterns that drive every transition of
// its last-page cache.
func TestMemoryAgainstShadowMap(t *testing.T) {
	const pg = uint64(pageSize)
	s := uint64(99)
	next := func(n uint64) uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return (s >> 33) % n
	}
	for _, pat := range []struct {
		name string
		run  func(p *memPair)
	}{
		{"random", func(p *memPair) {
			for i := 0; i < 20_000; i++ {
				addr := next(1 << 16)
				size := 1 << next(4)
				if next(2) == 0 {
					p.write(addr, next(1<<62), size)
				} else {
					p.read(addr, size)
				}
			}
		}},
		{"alternating pages", func(p *memPair) {
			for i := uint64(0); i < 64; i++ {
				a, b := 2*pg+8*i, 7*pg+8*i
				p.write(a, i, 8)
				p.write(b, ^i, 8)
				p.read(a, 8)
				p.read(b, 8)
				p.read(a+4, 4)
			}
		}},
		{"absent page read then written", func(p *memPair) {
			p.write(pg, 1, 8) // the cache holds page 1
			p.read(3*pg+40, 8)
			p.write(3*pg+40, 0xfeed, 2)
			p.read(3*pg+40, 8)
			p.read(pg, 8)
		}},
		{"scalars straddling a page boundary", func(p *memPair) {
			boundary := 10 * pg
			for _, size := range []int{2, 4, 8} {
				for back := 1; back < size; back++ {
					boundary += 2 * pg
					addr := boundary - uint64(back)
					p.write(boundary-8, next(1<<62), 8) // only the lower page is resident
					p.read(addr, size)
					p.write(addr, next(1<<62), size)
					p.read(addr, size)
					p.read(boundary-8, 8)
					p.read(boundary, 8)
				}
			}
		}},
	} {
		t.Run(pat.name, func(t *testing.T) { pat.run(newMemPair(t)) })
	}

	t.Run("writes to a clone of a warm source", func(t *testing.T) {
		src := newMemPair(t)
		src.write(4*pg+8, 0xaaaa, 8)
		src.read(4*pg+8, 8) // the source's cache holds page 4
		cp := src.clone()
		cp.write(4*pg+8, 0xbbbb, 8)
		cp.write(4*pg+16, 0xcccc, 4)
		cp.write(9*pg, 1, 8)
		src.read(4*pg+8, 8)
		src.read(4*pg+16, 4)
		src.read(9*pg, 8)
		src.write(4*pg+8, 0xdddd, 8)
		cp.read(4*pg+8, 8)
	})
}
