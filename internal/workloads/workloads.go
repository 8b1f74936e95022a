// Package workloads provides the benchmark kernels standing in for the
// paper's SPEC2K / SPEC2K6 / EEMBC / JavaScript / application pool
// (Table 3). The proprietary ARM binaries are not reproducible, so each
// kernel is a mini-ISA program engineered to exhibit one or more of the
// load/store phenomena the paper's evaluation turns on:
//
//   - temporal address locality (PAP/CAP fodder),
//   - Load → Store → Load conflicts with committed stores (the DLVP
//     headline case: values change, addresses do not),
//   - conflicts with in-flight stores (the LSCD case),
//   - value repeatability exceeding address repeatability (VTAGE-friendly),
//   - ARM-style multi-destination loads: LDP, LDM, VLD (the VTAGE
//     storage-inefficiency case),
//   - path-correlated loads reached through shared helpers (what
//     distinguishes PAP's global load-path history from CAP's per-load
//     context),
//   - pointer chasing, indirect dispatch, strided streaming.
//
// Kernels run in an infinite outer loop; callers bound execution with the
// emulator's MaxInstrs.
package workloads

import (
	"fmt"
	"sort"

	"dlvp/internal/emu"
	"dlvp/internal/program"
	"dlvp/internal/trace"
)

// Workload is one named benchmark kernel.
type Workload struct {
	Name  string
	Suite string // spec2k, spec2k6, eembc, js, app
	// Description states which phenomena the kernel exercises.
	Description string
	Build       func() *program.Program
}

var registry []Workload

func register(w Workload) {
	for _, r := range registry {
		if r.Name == w.Name {
			panic(fmt.Sprintf("workloads: duplicate workload %q", w.Name))
		}
	}
	registry = append(registry, w)
}

// All returns every registered workload, sorted by suite then name.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the sorted workload names.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// ByName returns the named workload.
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Reader returns a fresh functional stream for w bounded to maxInstrs
// dynamic instructions.
func (w Workload) Reader(maxInstrs uint64) trace.Reader {
	cpu := emu.New(w.Build())
	cpu.MaxInstrs = maxInstrs
	return cpu
}

// --- deterministic data generators ------------------------------------------

type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	s := seed ^ 0x2545f4914f6cdd1d
	if s == 0 {
		// xorshift is a linear map with 0 as a fixed point: the seed equal
		// to the mixing constant would otherwise produce all-zero output
		// (degenerate data arrays, identity "permutations") forever.
		s = 0x9e3779b97f4a7c15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// randWords returns n pseudo-random 64-bit words.
func randWords(seed uint64, n int) []uint64 {
	r := newRng(seed)
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.next()
	}
	return w
}

// smallWords returns n words drawn from a tiny value set (high value
// repeatability with varying addresses — the VTAGE-friendly shape).
func smallWords(seed uint64, n, distinct int) []uint64 {
	r := newRng(seed)
	w := make([]uint64, n)
	for i := range w {
		w[i] = uint64(r.intn(distinct))
	}
	return w
}

// permutation returns a pseudo-random permutation of 0..n-1.
func permutation(seed uint64, n int) []uint64 {
	r := newRng(seed)
	p := make([]uint64, n)
	for i := range p {
		p[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// linkedListWords lays out a singly linked list of n nodes (stride words
// apart, visiting order given by a permutation) inside a fresh symbol and
// returns the word slice plus the index of the head node. Each node is
// nodeWords 64-bit words; word 0 is the absolute address of the next node,
// remaining words are payload.
func linkedListWords(seed uint64, base uint64, n, nodeWords int) []uint64 {
	order := permutation(seed, n)
	words := make([]uint64, n*nodeWords)
	r := newRng(seed ^ 0xabcdef)
	for i := 0; i < n; i++ {
		cur := order[i]
		next := order[(i+1)%n]
		words[int(cur)*nodeWords] = base + next*uint64(nodeWords)*8
		for k := 1; k < nodeWords; k++ {
			words[int(cur)*nodeWords+k] = r.next() % 1024
		}
	}
	return words
}
