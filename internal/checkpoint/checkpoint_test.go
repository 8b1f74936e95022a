package checkpoint_test

import (
	"errors"
	"sync"
	"testing"

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

// liveSnapshot emulates the workload from the entry to offset and
// snapshots — the ground truth every store path must reproduce.
func liveSnapshot(t testing.TB, prog *program.Program, offset uint64) *emu.Snapshot {
	t.Helper()
	cpu := emu.New(prog)
	cpu.Run(offset)
	if cpu.Executed() != offset {
		t.Fatalf("live emulation stopped at %d, want %d", cpu.Executed(), offset)
	}
	return cpu.Snapshot()
}

func TestCodecRoundTrip(t *testing.T) {
	_, prog := testWorkload(t)
	snap := liveSnapshot(t, prog, 5_000)
	enc := checkpoint.Encode(snap)
	if want := checkpoint.EncodedSize(snap.Mem.Pages()); len(enc) != want {
		t.Errorf("encoding is %d bytes, EncodedSize says %d", len(enc), want)
	}
	got, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(snap) {
		t.Error("decoded snapshot differs from the original")
	}
}

func TestCodecCanonical(t *testing.T) {
	_, prog := testWorkload(t)
	a := checkpoint.Encode(liveSnapshot(t, prog, 3_000))
	b := checkpoint.Encode(liveSnapshot(t, prog, 3_000))
	if string(a) != string(b) {
		t.Error("equal states encode to different bytes; the content hash cannot fingerprint state")
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	_, prog := testWorkload(t)
	enc := checkpoint.Encode(liveSnapshot(t, prog, 1_000))

	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("flipped magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := checkpoint.Decode(enc[:4]); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("4-byte input: err = %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), enc...)
	bad[8] ^= 0xff // version field
	if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrBadVersion) {
		t.Errorf("wrong version: err = %v, want ErrBadVersion", err)
	}

	if _, err := checkpoint.Decode(enc[:len(enc)-1]); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("short input: err = %v, want ErrTruncated", err)
	}
	if _, err := checkpoint.Decode(enc[:20]); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("header-only input: err = %v, want ErrTruncated", err)
	}
	if _, err := checkpoint.Decode(append(append([]byte(nil), enc...), 0)); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("trailing garbage: err = %v, want ErrTruncated", err)
	}
}

// TestRestoreBitIdentical locks the PR's acceptance invariant: a
// checkpoint restore is bit-identical to live emulation at the same
// offset, and the restored CPU's continued stream matches the live one
// record for record.
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
	live.Run(offset)
	restored := emu.NewFromSnapshot(prog, got)
	var lr, rr trace.Rec
	for i := 0; i < 1_000; i++ {
		if live.Next(&lr) != restored.Next(&rr) {
			t.Fatal("streams end at different points")
		}
		if lr != rr {
			t.Fatalf("record %d diverges:\n live: %+v\n rest: %+v", i, lr, rr)
		}
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
		t.Error("decoded hit differs from live emulation")
	}
	if st := s.Stats(); st.Hits != 1 || st.Cold != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 cold", st)
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

func TestCPUAt(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	cpu, _, err := s.CPUAt(w.Name, prog, 2_500)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Executed() != 2_500 {
		t.Errorf("restored CPU reports %d executed, want 2500", cpu.Executed())
	}
	var rec trace.Rec
	if !cpu.Next(&rec) || cpu.Executed() != 2_501 {
		t.Errorf("first record numbered %d, want the absolute offset 2500", cpu.Executed()-1)
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
	one := len(checkpoint.Encode(liveSnapshot(t, prog, 1_000)))
	// Room for about two checkpoints: inserting four must evict.
	s := checkpoint.NewStore(int64(one)*2 + int64(one)/2)
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

func TestCaptureDepositsCheckpoints(t *testing.T) {
	w, prog := testWorkload(t)
	s := checkpoint.NewStore(0)
	cpu := w.CPU(5_000)
	r := s.Capture(cpu, w.Name, 1_000)
	var rec trace.Rec
	n := 0
	for r.Next(&rec) {
		n++
	}
	if n != 5_000 {
		t.Fatalf("capture reader delivered %d records, want 5000", n)
	}
	st := s.Stats()
	if st.Captured != 5 {
		t.Errorf("captured = %d checkpoints, want 5 (every 1000 of 5000)", st.Captured)
	}
	// A later sampled run restores one of them as an exact hit.
	snap, outcome, err := s.StateAt(w.Name, prog, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != checkpoint.OutcomeHit {
		t.Errorf("outcome = %q, want hit from the captured chain", outcome)
	}
	if !snap.Equal(liveSnapshot(t, prog, 3_000)) {
		t.Error("captured checkpoint differs from live emulation")
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
	cpu := w.CPU(100)
	if got := s.Capture(cpu, w.Name, 10); got != trace.Reader(cpu) {
		t.Error("nil store must return the CPU unwrapped")
	}
	if st := s.Stats(); st != (checkpoint.Stats{}) {
		t.Errorf("nil store stats = %+v, want zero", st)
	}
}
