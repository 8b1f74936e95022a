package emu

import (
	"testing"
	"testing/quick"

	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

func run(t *testing.T, build func(b *program.Builder)) (*CPU, []trace.Rec) {
	t.Helper()
	b := program.NewBuilder("test")
	build(b)
	p := b.Build()
	c := New(p)
	c.MaxInstrs = 1_000_000
	recs := trace.Collect(c, 0)
	return c, recs
}

func TestALULoop(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		b.MovImm(0, 10) // counter
		b.MovImm(1, 0)  // sum
		b.Label("loop")
		b.Add(1, 1, 0)
		b.SubI(0, 0, 1)
		b.Cbnz(0, "loop")
		b.Halt()
	})
	if got := c.Reg(1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if !c.Halted() {
		t.Error("not halted")
	}
	// 2 setup + 10*3 loop + 1 halt
	if len(recs) != 33 {
		t.Errorf("executed %d records, want 33", len(recs))
	}
}

func TestArithmeticOps(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		b.MovImm(1, 100)
		b.MovImm(2, 7)
		b.Op3(isa.MUL, 3, 1, 2)     // 700
		b.Op3(isa.UDIV, 4, 1, 2)    // 14
		b.Op3(isa.UREM, 5, 1, 2)    // 2
		b.Op3(isa.SUB, 6, 1, 2)     // 93
		b.Op3(isa.AND, 7, 1, 2)     // 100 & 7 = 4
		b.Op3(isa.ORR, 8, 1, 2)     // 103
		b.Op3(isa.EOR, 9, 1, 2)     // 99
		b.OpImm(isa.LSLI, 10, 2, 4) // 112
		b.OpImm(isa.LSRI, 11, 1, 2) // 25
		b.Madd(12, 2, 2, 1)         // 149
		b.Halt()
	})
	want := map[isa.Reg]uint64{3: 700, 4: 14, 5: 2, 6: 93, 7: 4, 8: 103, 9: 99, 10: 112, 11: 25, 12: 149}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("x%d = %d, want %d", r, got, w)
		}
	}
}

func TestDivByZero(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		b.MovImm(1, 42)
		b.MovImm(2, 0)
		b.Op3(isa.UDIV, 3, 1, 2)
		b.Op3(isa.UREM, 4, 1, 2)
		b.Halt()
	})
	if c.Reg(3) != 0 || c.Reg(4) != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", c.Reg(3), c.Reg(4))
	}
}

func TestXZRSemantics(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		b.MovImm(isa.XZR, 99) // discarded
		b.AddI(1, isa.XZR, 5) // 0 + 5
		b.Halt()
	})
	if c.Reg(isa.XZR) != 0 {
		t.Error("XZR must read as zero")
	}
	if c.Reg(1) != 5 {
		t.Errorf("x1 = %d, want 5", c.Reg(1))
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		base := b.Alloc("buf", 64)
		b.MovImm(1, base)
		b.MovImm(2, 0xdeadbeefcafe)
		b.Str(2, 1, 0, 3)
		b.Ldr(3, 1, 0, 3)
		b.Ldr(4, 1, 0, 2) // low 4 bytes
		b.Ldr(5, 1, 4, 2) // high 4 bytes
		b.Ldr(6, 1, 0, 0) // lowest byte
		b.Halt()
	})
	if c.Reg(3) != 0xdeadbeefcafe {
		t.Errorf("x3 = %#x", c.Reg(3))
	}
	if c.Reg(4) != 0xbeefcafe {
		t.Errorf("x4 = %#x", c.Reg(4))
	}
	if c.Reg(5) != 0xdead {
		t.Errorf("x5 = %#x", c.Reg(5))
	}
	if c.Reg(6) != 0xfe {
		t.Errorf("x6 = %#x", c.Reg(6))
	}
	var loads, stores int
	for i := range recs {
		if recs[i].IsLoad() {
			loads++
			if recs[i].Bytes == 0 {
				t.Error("load record missing Bytes")
			}
		}
		if recs[i].IsStore() {
			stores++
		}
	}
	if loads != 4 || stores != 1 {
		t.Errorf("loads/stores = %d/%d, want 4/1", loads, stores)
	}
}

func TestSignExtendedLoad(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		base := b.AllocInit("buf", []byte{0xff, 0x7f, 0x80, 0x00})
		b.MovImm(1, base)
		b.Emit(isa.Inst{Op: isa.LDRS, Rd: 2, Rn: 1, Rm: isa.XZR, Imm: 0, Size: 0}) // 0xff -> -1
		b.Emit(isa.Inst{Op: isa.LDRS, Rd: 3, Rn: 1, Rm: isa.XZR, Imm: 1, Size: 0}) // 0x7f -> 127
		b.Halt()
	})
	if int64(c.Reg(2)) != -1 {
		t.Errorf("sign-extended byte = %d, want -1", int64(c.Reg(2)))
	}
	if c.Reg(3) != 127 {
		t.Errorf("positive byte = %d, want 127", c.Reg(3))
	}
}

func TestLdpLdmVld(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		base := b.AllocWords("w", []uint64{11, 22, 33, 44, 55})
		b.MovImm(1, base)
		b.Ldp(2, 3, 1, 0)
		b.Ldm(4, 4, 1, 8) // x4..x7 = 22,33,44,55
		b.Vld(32, 33, 1, 0)
		b.Halt()
	})
	want := map[isa.Reg]uint64{2: 11, 3: 22, 4: 22, 5: 33, 6: 44, 7: 55, 32: 11, 33: 22}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
	for i := range recs {
		r := &recs[i]
		switch r.Op {
		case isa.LDP, isa.VLD:
			if r.NDst != 2 || r.Vals[0] != 11 || r.Vals[1] != 22 || r.Bytes != 16 {
				t.Errorf("%v record wrong: ndst=%d vals=%v bytes=%d", r.Op, r.NDst, r.Vals[:2], r.Bytes)
			}
		case isa.LDM:
			if r.NDst != 4 || r.Bytes != 32 || r.DestValue(3, c.Overflow()) != 55 {
				t.Errorf("ldm record wrong: ndst=%d bytes=%d last val=%d", r.NDst, r.Bytes, r.DestValue(3, c.Overflow()))
			}
		}
	}
}

// An LDM whose register range covers XZR loads the XZR word but writes no
// register: the record lists only the real destinations, each paired with
// the word it receives, and a wide LDM's tail comes from the overflow table.
func TestLdmOverXZR(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		base := b.AllocWords("w", []uint64{10, 20, 30, 40, 50})
		b.MovImm(1, base)
		b.Ldm(29, 5, 1, 0) // x29, x30, xzr, v0, v1 = 10, 20, (30), 40, 50
		b.Halt()
	})
	r := recs[1]
	wantDst := []isa.Reg{29, 30, 32, 33}
	wantVal := []uint64{10, 20, 40, 50}
	if r.Op != isa.LDM || int(r.NDst) != len(wantDst) || r.Bytes != 40 {
		t.Fatalf("ldm record: op %v ndst %d bytes %d, want ldm/4/40", r.Op, r.NDst, r.Bytes)
	}
	for j := range wantDst {
		if d, v := r.DestReg(j, c.Overflow()), r.DestValue(j, c.Overflow()); d != wantDst[j] || v != wantVal[j] {
			t.Errorf("destination %d = %v:%d, want %v:%d", j, d, v, wantDst[j], wantVal[j])
		}
		if got := c.Reg(wantDst[j]); got != wantVal[j] {
			t.Errorf("%v = %d, want %d", wantDst[j], got, wantVal[j])
		}
	}
}

func TestLdrPostAndStrPost(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		base := b.AllocWords("w", []uint64{7, 8, 9})
		b.MovImm(1, base)
		b.LdrPost(2, 1, 8) // x2=7, x1+=8
		b.LdrPost(3, 1, 8) // x3=8
		dst := b.Alloc("dst", 32)
		b.MovImm(4, dst)
		b.MovImm(5, 0x55)
		b.Emit(isa.Inst{Op: isa.STRPOST, Rt: 5, Rn: 4, Imm: 8, Size: 3})
		b.Halt()
	})
	if c.Reg(2) != 7 || c.Reg(3) != 8 {
		t.Errorf("post-index loads = %d,%d", c.Reg(2), c.Reg(3))
	}
	for i := range recs {
		if recs[i].Op == isa.LDRPOST && i == 2 {
			if recs[i].NDst != 2 {
				t.Errorf("ldrpost NDst = %d, want 2 (value + base)", recs[i].NDst)
			}
		}
	}
	// STRPOST must have advanced x4 by 8 and written memory.
	if got := c.Mem().Read(c.Reg(4)-8, 8); got != 0x55 {
		t.Errorf("strpost memory = %#x, want 0x55", got)
	}
}

func TestStp(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		base := b.Alloc("buf", 32)
		b.MovImm(1, base)
		b.MovImm(2, 111)
		b.MovImm(3, 222)
		b.Stp(2, 3, 1, 0)
		b.Ldr(4, 1, 0, 3)
		b.Ldr(5, 1, 8, 3)
		b.Halt()
	})
	if c.Reg(4) != 111 || c.Reg(5) != 222 {
		t.Errorf("stp round trip = %d,%d", c.Reg(4), c.Reg(5))
	}
}

func TestIndexedAddressing(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		base := b.AllocWords("arr", []uint64{10, 20, 30, 40})
		b.MovImm(1, base)
		b.MovImm(2, 3) // index
		b.LdrIdx(3, 1, 2, 3, 3)
		b.Halt()
	})
	if c.Reg(3) != 40 {
		t.Errorf("arr[3] = %d, want 40", c.Reg(3))
	}
}

func TestCallReturn(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		b.MovImm(0, 5)
		b.Call("double", 30)
		b.Call("double", 30)
		b.Halt()
		b.Label("double")
		b.Add(0, 0, 0)
		b.Ret(30)
	})
	if c.Reg(0) != 20 {
		t.Errorf("x0 = %d, want 20", c.Reg(0))
	}
	var calls, rets int
	for i := range recs {
		switch recs[i].Op {
		case isa.BL:
			calls++
			if !recs[i].Taken {
				t.Error("BL must be taken")
			}
		case isa.RET:
			rets++
			if !recs[i].Taken {
				t.Error("RET must be taken")
			}
		}
	}
	if calls != 2 || rets != 2 {
		t.Errorf("calls/rets = %d/%d", calls, rets)
	}
}

func TestIndirectBranch(t *testing.T) {
	// MOVZ x1, <addr of "movz x2,42"> ; BR x1 ; HALT (skipped) ; MOVZ x2,42 ; HALT
	bb := program.NewBuilder("br")
	bb.MovImm(1, program.CodeBase+3*4)
	bb.BrReg(1)
	bb.Halt() // skipped
	bb.MovImm(2, 42)
	bb.Halt()
	cpu := New(bb.Build())
	cpu.MaxInstrs = 100
	trace.Collect(cpu, 0)
	if cpu.Reg(2) != 42 {
		t.Errorf("indirect branch target not reached, x2 = %d", cpu.Reg(2))
	}
}

func TestConditionalBranches(t *testing.T) {
	cases := []struct {
		op    isa.Op
		a, b  uint64
		taken bool
	}{
		{isa.BEQ, 5, 5, true},
		{isa.BEQ, 5, 6, false},
		{isa.BNE, 5, 6, true},
		{isa.BLT, ^uint64(0), 1, true}, // -1 < 1 signed
		{isa.BGE, 1, ^uint64(0), true}, // 1 >= -1 signed
		{isa.BLTU, 1, ^uint64(0), true},
		{isa.BGEU, ^uint64(0), 1, true},
		{isa.BLTU, ^uint64(0), 1, false},
	}
	for _, tc := range cases {
		b := program.NewBuilder("cb")
		b.MovImm(1, tc.a)
		b.MovImm(2, tc.b)
		b.CondBr(tc.op, 1, 2, "hit")
		b.MovImm(3, 1) // fallthrough marker
		b.Halt()
		b.Label("hit")
		b.MovImm(3, 2)
		b.Halt()
		c := New(b.Build())
		c.MaxInstrs = 100
		trace.Collect(c, 0)
		want := uint64(1)
		if tc.taken {
			want = 2
		}
		if c.Reg(3) != want {
			t.Errorf("%v(%d,%d): marker = %d, want %d", tc.op, int64(tc.a), int64(tc.b), c.Reg(3), want)
		}
	}
}

func TestCSel(t *testing.T) {
	c, _ := run(t, func(b *program.Builder) {
		b.MovImm(1, 10)
		b.MovImm(2, 1)
		b.Emit(isa.Inst{Op: isa.CSEL, Rd: 3, Rn: 1, Rm: 2, Imm: 99}) // rm!=0 -> rn
		b.Emit(isa.Inst{Op: isa.CSEL, Rd: 4, Rn: 1, Rm: isa.XZR, Imm: 99})
		b.Halt()
	})
	if c.Reg(3) != 10 || c.Reg(4) != 99 {
		t.Errorf("csel = %d,%d, want 10,99", c.Reg(3), c.Reg(4))
	}
}

func TestMaxInstrsBudget(t *testing.T) {
	b := program.NewBuilder("inf")
	b.Label("loop")
	b.Br("loop")
	c := New(b.Build())
	c.MaxInstrs = 500
	recs := trace.Collect(c, 0)
	if len(recs) != 500 {
		t.Errorf("records = %d, want 500", len(recs))
	}
	if c.Halted() {
		t.Error("budget exhaustion is not a halt")
	}
}

func TestRecNextChains(t *testing.T) {
	_, recs := run(t, func(b *program.Builder) {
		b.MovImm(0, 3)
		b.Label("loop")
		b.SubI(0, 0, 1)
		b.Cbnz(0, "loop")
		b.Halt()
	})
	for i := 0; i+1 < len(recs); i++ {
		if recs[i].Next != recs[i+1].PC {
			t.Fatalf("rec %d Next=%#x but next PC=%#x", i, recs[i].Next, recs[i+1].PC)
		}
	}
}

func TestLdarStlr(t *testing.T) {
	c, recs := run(t, func(b *program.Builder) {
		base := b.Alloc("m", 8)
		b.MovImm(1, base)
		b.MovImm(2, 77)
		b.Emit(isa.Inst{Op: isa.STLR, Rt: 2, Rn: 1, Rm: isa.XZR, Size: 3})
		b.Ldar(3, 1, 0, 3)
		b.Halt()
	})
	if c.Reg(3) != 77 {
		t.Errorf("ldar = %d, want 77", c.Reg(3))
	}
	var ordered int
	for i := range recs {
		if recs[i].Op.IsOrdered() {
			ordered++
		}
	}
	if ordered != 2 {
		t.Errorf("ordered records = %d, want 2", ordered)
	}
}

// Property: memory Read/Write round-trips for all sizes and addresses,
// including page-boundary crossing accesses.
func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	f := func(addr uint64, val uint64, sizeSel uint8) bool {
		addr %= 1 << 40
		size := 1 << (sizeSel % 4)
		m.Write(addr, val, size)
		got := m.Read(addr, size)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryPageBoundary(t *testing.T) {
	m := NewMemory()
	addr := uint64(2*pageSize - 3) // crosses into the next page
	m.Write(addr, 0x0102030405060708, 8)
	if got := m.Read(addr, 8); got != 0x0102030405060708 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Read(0x1234567, 8) != 0 {
		t.Error("untouched memory must read zero")
	}
	if m.Pages() != 0 {
		t.Error("reads must not allocate pages")
	}
}

func TestStackPointerInitialised(t *testing.T) {
	b := program.NewBuilder("sp")
	b.Halt()
	c := New(b.Build())
	if c.Reg(SPReg) != program.StackTop {
		t.Errorf("SP = %#x, want %#x", c.Reg(SPReg), uint64(program.StackTop))
	}
}
