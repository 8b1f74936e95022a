//go:build uarchassert

package uarch

import (
	"strings"
	"testing"

	"dlvp/internal/config"
	"dlvp/internal/isa"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// TestRemovePendingStoreAssertFires verifies the assert build refuses a
// store resolving without a pending-store registration — the invariant
// the SoA rewrite must not regress silently. Run with:
//
//	go test -tags uarchassert ./internal/uarch/
func TestRemovePendingStoreAssertFires(t *testing.T) {
	recs := []trace.Rec{{PC: 0x1000, Op: isa.STR, Flags: isa.STR.Flags(), Addr: 0x8000, Bytes: 8}}
	c := NewAt(config.Baseline(), program.NewBuilder("as").Build(),
		&trace.SliceReader{Recs: recs}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("removePendingStore on an unregistered store did not panic under -tags uarchassert")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "pending-store bookkeeping") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.removePendingStore(0) // never registered by fetch: bookkeeping diverged
}

// TestAssertBuildStillCorrect runs a real workload under the assert build:
// the invariant checks must all hold on the normal path.
func TestAssertBuildStillCorrect(t *testing.T) {
	runWorkload(t, "perlbmk", config.Baseline(), 20_000)
	runWorkload(t, "perlbmk", config.DLVP(), 20_000)
}
