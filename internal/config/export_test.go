package config

import (
	"reflect"
	"strings"
)

// AtBounds returns c with every field Validate bounds at its lower bound,
// or at its upper bound when hi is set: each history slice then holds the
// fewest or the most tables, each of the fewest or the most bits, and the
// VTAGE confidence vector is the default or the longest with the largest
// step. Fields are found by the names Validate reports.
func AtBounds(c Core, hi bool) Core {
	field := func(name string) reflect.Value {
		v := reflect.ValueOf(&c).Elem()
		for _, f := range strings.Split(name, ".") {
			v = v.FieldByName(f)
		}
		return v
	}
	// Two passes: a size's lower bound follows the block size and ways
	// the first pass sets.
	for pass := 0; pass < 2; pass++ {
		for _, l := range c.limits() {
			b := l.lo
			if hi {
				b = l.hi
			}
			if f := field(l.name); f.CanInt() {
				f.SetInt(b)
			} else {
				f.SetUint(uint64(b))
			}
		}
	}
	n, bits, steps := 1, uint8(0), 0
	if hi {
		n, bits, steps = maxTables, maxHistory, maxSteps
	}
	for _, name := range []string{"TAGE.Histories", "ITTAGE.Histories", "VP.VTAGE.Histories", "VP.DVTAGE.Histories"} {
		h := make([]uint8, n)
		for i := range h {
			h[i] = bits
		}
		field(name).Set(reflect.ValueOf(h))
	}
	c.VP.VTAGE.ConfidenceVector = nil
	for i := 0; i < steps; i++ {
		c.VP.VTAGE.ConfidenceVector = append(c.VP.VTAGE.ConfidenceVector, 1<<31)
	}
	return c
}
