package config

import (
	"fmt"
	"reflect"
	"strings"
)

// Bound is one field Validate bounds, as Vary shows it to its pick: the
// name Validate reports, the field's value, its legal range, and whether
// it must be a power of two.
type Bound struct {
	Name      string
	V, Lo, Hi int64
	Pow2      bool
}

// Vary returns c with every field Validate bounds set to pick's answer
// for it: each bounded integer field, the length of each history slice and
// each of its tables' bits, and the VTAGE confidence vector's step count
// and each of its steps (an empty vector selects the default). A table or
// step past the old length shows its last value, or 0 and 1 when there is
// none. pick sees the integer fields twice, because a size's lower bound
// follows the block size and ways the first pass sets, so it must answer a
// field alike both times. Fields are found by the names Validate reports.
func Vary(c Core, pick func(Bound) int64) Core {
	field := func(name string) reflect.Value {
		v := reflect.ValueOf(&c).Elem()
		for _, f := range strings.Split(name, ".") {
			v = v.FieldByName(f)
		}
		return v
	}
	for pass := 0; pass < 2; pass++ {
		for _, l := range c.limits() {
			b := pick(Bound{l.name, l.v, l.lo, l.hi, l.pow2})
			if f := field(l.name); f.CanInt() {
				f.SetInt(b)
			} else {
				f.SetUint(uint64(b))
			}
		}
	}
	at := func(s []int64, i int, none int64) int64 {
		if len(s) == 0 {
			return none
		}
		return s[min(i, len(s)-1)]
	}
	for _, name := range []string{"TAGE.Histories", "ITTAGE.Histories", "VP.VTAGE.Histories", "VP.DVTAGE.Histories"} {
		f := field(name)
		var old []int64
		for _, b := range f.Interface().([]uint8) {
			old = append(old, int64(b))
		}
		h := make([]uint8, pick(Bound{Name: name, V: int64(len(old)), Lo: 1, Hi: maxTables}))
		for i := range h {
			h[i] = uint8(pick(Bound{Name: fmt.Sprintf("%s[%d]", name, i), V: at(old, i, 0), Hi: maxHistory}))
		}
		f.Set(reflect.ValueOf(h))
	}
	var old []int64
	for _, d := range c.VP.VTAGE.ConfidenceVector {
		old = append(old, int64(d))
	}
	c.VP.VTAGE.ConfidenceVector = nil
	steps := pick(Bound{Name: "VP.VTAGE.ConfidenceVector", V: int64(len(old)), Hi: maxSteps})
	for i := 0; i < int(steps); i++ {
		d := pick(Bound{Name: fmt.Sprintf("VP.VTAGE.ConfidenceVector[%d]", i), V: at(old, i, 1), Lo: 1, Hi: 1 << 31, Pow2: true})
		c.VP.VTAGE.ConfidenceVector = append(c.VP.VTAGE.ConfidenceVector, uint32(d))
	}
	return c
}

// AtBounds returns c with every field Validate bounds at its lower bound,
// or at its upper bound when hi is set: each history slice then holds the
// fewest or the most tables, each of the fewest or the most bits, and the
// VTAGE confidence vector is the default or the longest with the largest
// step.
func AtBounds(c Core, hi bool) Core {
	return Vary(c, func(b Bound) int64 {
		if hi {
			return b.Hi
		}
		return b.Lo
	})
}
