package checkpoint_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dlvp/internal/checkpoint"
	"dlvp/internal/emu"
	"dlvp/internal/program"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

// testWorkload returns a registered kernel (they loop forever, so any
// offset is reachable) plus its program.
func testWorkload(t testing.TB) (workloads.Workload, *program.Program) {
	t.Helper()
	w, ok := workloads.ByName("perlbmk")
	if !ok {
		t.Fatal("perlbmk missing from registry")
	}
	return w, w.Build()
}

// nextTo drives cpu through the record path, Next, until it has executed
// offset instructions or stops. The store builds state with Run's
// record-free fast-forward, so its reference states come from Next.
func nextTo(cpu *emu.CPU, offset uint64) {
	var rec trace.Rec
	for cpu.Executed() < offset && cpu.Next(&rec) {
	}
}

// liveSnapshot emulates the workload from the entry to offset and
// snapshots — the ground truth every store path must reproduce.
func liveSnapshot(t testing.TB, prog *program.Program, offset uint64) *emu.Snapshot {
	t.Helper()
	cpu := emu.New(prog)
	nextTo(cpu, offset)
	if cpu.Executed() != offset {
		t.Fatalf("live emulation stopped at %d, want %d", cpu.Executed(), offset)
	}
	return cpu.Snapshot()
}

// TestRestoreBitIdentical locks the store's central invariant: a
// checkpoint restore is bit-identical to live emulation at the same
// offset, and the restored CPU counts on from that offset with a stream
// that matches the live one record for record.
func TestRestoreBitIdentical(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	const offset = 10_000

	want := liveSnapshot(t, prog, offset)
	got, outcome, err := s.StateAt(w.Name, prog, offset)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeCold {
		t.Errorf("first build outcome = %q, want cold", outcome)
	}
	if !got.Equal(want) {
		t.Fatal("restored state differs from live emulation at the same offset")
	}

	// The continuation must be bit-identical too, not just the snapshot.
	live := emu.New(prog)
	nextTo(live, offset)
	restored := emu.NewFromSnapshot(prog, got)
	if restored.Executed() != offset {
		t.Fatalf("restored CPU reports %d executed, want %d", restored.Executed(), offset)
	}
	var lr, rr trace.Rec
	for i := 0; i < 1_000; i++ {
		if live.Next(&lr) != restored.Next(&rr) {
			t.Fatal("streams end at different points")
		}
		if lr != rr {
			t.Fatalf("record %d diverges:\n live: %+v\n rest: %+v", i, lr, rr)
		}
	}
	if restored.Executed() != offset+1_000 {
		t.Errorf("restored CPU counts %d executed after 1000 records, want the absolute %d", restored.Executed(), offset+1_000)
	}

	// Second request for the same offset is an exact hit.
	again, outcome, err := s.StateAt(w.Name, prog, offset)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeHit {
		t.Errorf("second request outcome = %q, want hit", outcome)
	}
	if !again.Equal(want) {
		t.Error("restored hit differs from live emulation")
	}
	if st := s.Stats(); st.Hits != 1 || st.Cold != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 cold", st)
	}
}

// TestFastForwardMatchesRecordPath holds Run, the record-free
// fast-forward every checkpoint build uses, to the record path: state
// reached by Run must equal the state Next reaches, and Run must leave no
// overflow-table entries.
func TestFastForwardMatchesRecordPath(t *testing.T) {
	same := func(t *testing.T, fast, ref *emu.CPU) {
		t.Helper()
		a, b := fast.Snapshot(), ref.Snapshot()
		if !a.Equal(b) {
			t.Fatalf("Run reached a different state than Next (executed %d vs %d, halted %v vs %v)",
				a.Seq, b.Seq, a.Halted, b.Halted)
		}
		if n := fast.Overflow().Bytes(); n != 0 {
			t.Fatalf("Run left %d bytes in the overflow table", n)
		}
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Build()
			fast, ref := emu.New(prog), emu.New(prog)
			for _, offset := range []uint64{5_000, 200_000} {
				fast.Run(offset - fast.Executed())
				nextTo(ref, offset)
				same(t, fast, ref)
			}
		})
	}

	// Programs that stop before the budget: one halts, one runs off the
	// end of its code.
	for _, halt := range []bool{true, false} {
		t.Run(fmt.Sprintf("stops early, halt=%v", halt), func(t *testing.T) {
			b := program.NewBuilder("short")
			b.MovImm(0, 0x4000)
			b.MovImm(1, 7)
			b.Str(1, 0, 0, 3)
			if halt {
				b.Halt()
			}
			prog := b.Build()
			fast, ref := emu.New(prog), emu.New(prog)
			if n := fast.Run(100); n != uint64(len(prog.Code)) || !fast.Halted() {
				t.Errorf("Run executed %d of %d instructions, halted %v", n, len(prog.Code), fast.Halted())
			}
			nextTo(ref, 100)
			same(t, fast, ref)
		})
	}

	// A MaxInstrs set before Run bounds Run(0); Run(max) runs max more in
	// its place; neither changes it.
	t.Run("MaxInstrs set before Run", func(t *testing.T) {
		_, prog := testWorkload(t)
		fast, ref := emu.New(prog), emu.New(prog)
		fast.MaxInstrs, ref.MaxInstrs = 700, 700
		if n := fast.Run(0); n != 700 {
			t.Fatalf("Run(0) under MaxInstrs 700 executed %d", n)
		}
		nextTo(ref, 1_000)
		same(t, fast, ref)
		if n := fast.Run(300); n != 300 || fast.MaxInstrs != 700 {
			t.Fatalf("Run(300) executed %d and left MaxInstrs %d, want 300 and 700", n, fast.MaxInstrs)
		}
		ref.MaxInstrs = 1_000
		nextTo(ref, 1_000)
		same(t, fast, ref)
	})
}

// TestRestoredStateIsPrivate holds StateAt to handing out private copies.
// A caller may write the state it gets, and a sampled interval's emulator
// takes it over (emu.NewFromSnapshot copies nothing) and writes its
// memory as it runs. So each state is overwritten here after it is
// checked, by an emulator restored from it and then directly: later hits,
// and a build chained off the resident checkpoint, must still equal live
// emulation. Handing out the resident snapshot fails this.
func TestRestoredStateIsPrivate(t *testing.T) {
	w, prog := testWorkload(t)
	data := prog.Data[0].Base // resident from the first instruction
	s := checkpoint.NewStore(0)
	for _, step := range []struct {
		offset uint64
		want   checkpoint.Outcome
	}{
		{3_000, checkpoint.OutcomeCold},
		{3_000, checkpoint.OutcomeHit},
		{7_000, checkpoint.OutcomeChained},
		{3_000, checkpoint.OutcomeHit},
		{7_000, checkpoint.OutcomeHit},
	} {
		snap, outcome, err := s.StateAt(w.Name, prog, step.offset)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != step.want {
			t.Errorf("state at %d: outcome %q, want %q", step.offset, outcome, step.want)
		}
		if !snap.Equal(liveSnapshot(t, prog, step.offset)) {
			t.Fatalf("%s state at %d differs from live emulation: a caller's writes reached the store", outcome, step.offset)
		}
		cpu := emu.NewFromSnapshot(prog, snap)
		cpu.Run(2_000) // its stores land in snap.Mem
		cpu.Mem().Write(data, ^cpu.Mem().Read(data, 8), 8)
		cpu.Mem().Write(1<<40, 1, 8) // a page no kernel touches
		if snap.Mem.Read(1<<40, 8) != 1 {
			t.Fatal("the restored emulator does not write the snapshot it was given")
		}
		snap.Regs[3] ^= 0x5a5a
		snap.PC += 4
	}
}

// TestEnsureMatchesStateAt: Ensure, which copies nothing out, builds a
// chain exactly as StateAt does (the same outcomes and store counters),
// and StateAt then hands out what Ensure left resident.
func TestEnsureMatchesStateAt(t *testing.T) {
	w, prog := testWorkload(t)
	viaEnsure, viaStateAt := checkpoint.NewStore(0), checkpoint.NewStore(0)
	for _, off := range []uint64{3_000, 7_000, 3_000, 5_000, 7_000} {
		got, err := viaEnsure.Ensure(context.Background(), w.Name, prog, off)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := viaStateAt.StateAt(w.Name, prog, off)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("offset %d: Ensure served %q, StateAt %q", off, got, want)
		}
	}
	if got, want := viaEnsure.Stats(), viaStateAt.Stats(); got != want {
		t.Errorf("store counters after Ensure %+v, after StateAt %+v", got, want)
	}
	snap, outcome, err := viaEnsure.StateAt(w.Name, prog, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeHit || !snap.Equal(liveSnapshot(t, prog, 5_000)) {
		t.Errorf("state at 5000 after Ensure: outcome %q, equal to live emulation %v", outcome, snap.Equal(liveSnapshot(t, prog, 5_000)))
	}
	var none *checkpoint.Store
	if outcome, err := none.Ensure(context.Background(), w.Name, prog, 1_500); err != nil || outcome != checkpoint.OutcomeCold {
		t.Errorf("nil store Ensure: outcome %q, err %v; want cold", outcome, err)
	}
}

// TestEnsureStopsWhenCancelled: a build that emulates in chunks ends
// within one chunk of its context's deadline, returns the context's error
// and stores nothing; a later build over more than one chunk still lands
// on the live emulation's state.
func TestEnsureStopsWhenCancelled(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := s.Ensure(ctx, w.Name, prog, 1<<40); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Ensure returned %v after it started, want within 1s", d)
	}
	if st := s.Stats(); st.Entries != 0 || st.Cold != 0 {
		t.Errorf("a cancelled build left %d entries, %d cold builds", st.Entries, st.Cold)
	}
	const off = 2_500_000 // two full chunks and part of a third
	if _, err := s.Ensure(context.Background(), w.Name, prog, off); err != nil {
		t.Fatal(err)
	}
	snap, outcome, err := s.StateAt(w.Name, prog, off)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeHit || !snap.Equal(liveSnapshot(t, prog, off)) {
		t.Errorf("state at %d: outcome %q, equal to live emulation %v", off, outcome, snap.Equal(liveSnapshot(t, prog, off)))
	}
}

func TestStateAtOffsetZero(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	snap, outcome, err := s.StateAt(w.Name, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeFresh {
		t.Errorf("outcome = %q, want fresh", outcome)
	}
	if !snap.Equal(emu.New(prog).Snapshot()) {
		t.Error("offset-0 state differs from a fresh CPU")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Error("offset 0 must not occupy the store")
	}
}

func TestChainedBuildEqualsFresh(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	if _, outcome, err := s.StateAt(w.Name, prog, 4_000); err != nil || outcome != checkpoint.OutcomeCold {
		t.Fatalf("seed build: outcome %q, err %v", outcome, err)
	}
	snap, outcome, err := s.StateAt(w.Name, prog, 9_000)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeChained {
		t.Errorf("outcome = %q, want chained (a checkpoint at 4000 was resident)", outcome)
	}
	if !snap.Equal(liveSnapshot(t, prog, 9_000)) {
		t.Error("chained build differs from emulating the whole prefix")
	}
}

func TestHaltedEarly(t *testing.T) {
	b := program.NewBuilder("tiny")
	b.MovImm(0, 1)
	b.MovImm(1, 2)
	b.Halt()
	prog := b.Build()

	s := checkpoint.NewStore(0)
	_, _, err := s.StateAt("tiny", prog, 100)
	var he *checkpoint.HaltedEarlyError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want HaltedEarlyError", err)
	}
	if he.Workload != "tiny" || he.Want != 100 || he.Got != 3 {
		t.Errorf("error details = %+v, want tiny/100/3", he)
	}
}

func TestLRUEviction(t *testing.T) {
	w, prog := testWorkload(t)
	probe := checkpoint.NewStore(0)
	if _, _, err := probe.StateAt(w.Name, prog, 1_000); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().ResidentBytes
	// Room for about two checkpoints: inserting four must evict.
	s := checkpoint.NewStore(one*2 + one/2)
	for _, off := range []uint64{1_000, 2_000, 3_000, 4_000} {
		if _, _, err := s.StateAt(w.Name, prog, off); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions despite exceeding the byte budget")
	}
	if st.ResidentBytes > st.BudgetBytes {
		t.Errorf("resident %d bytes exceeds budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	// Evicted offsets must still be servable (rebuilt, not lost).
	snap, _, err := s.StateAt(w.Name, prog, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(liveSnapshot(t, prog, 1_000)) {
		t.Error("rebuild after eviction differs from live emulation")
	}
}

func TestConcurrentRequestsCoalesce(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	const workers = 8
	var wg sync.WaitGroup
	outcomes := make([]checkpoint.Outcome, workers)
	snaps := make([]*emu.Snapshot, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, outcome, err := s.StateAt(w.Name, prog, 20_000)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = outcome
			snaps[i] = snap
		}(i)
	}
	wg.Wait()
	want := liveSnapshot(t, prog, 20_000)
	builds := 0
	for i := 0; i < workers; i++ {
		if snaps[i] == nil {
			t.Fatal("missing snapshot")
		}
		if !snaps[i].Equal(want) {
			t.Fatal("coalesced waiter got a different state")
		}
		if outcomes[i] != checkpoint.OutcomeCoalesced && outcomes[i] != checkpoint.OutcomeHit {
			builds++
		}
	}
	if builds != 1 {
		t.Errorf("%d goroutines built the same checkpoint, want exactly 1", builds)
	}
	if st := s.Stats(); st.Cold+st.Chained != 1 {
		t.Errorf("stats count %d builds, want 1: %+v", st.Cold+st.Chained, st)
	}
}

func TestNilStore(t *testing.T) {
	w, prog := testWorkload(t)
	var s *checkpoint.Store
	snap, outcome, err := s.StateAt(w.Name, prog, 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeCold {
		t.Errorf("outcome = %q, want cold (nil store retains nothing)", outcome)
	}
	if !snap.Equal(liveSnapshot(t, prog, 1_500)) {
		t.Error("nil-store build differs from live emulation")
	}
	if st := s.Stats(); st != (checkpoint.Stats{}) {
		t.Errorf("nil store stats = %+v, want zero", st)
	}
}
