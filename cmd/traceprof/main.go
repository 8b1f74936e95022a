// Command traceprof streams workloads through the paper's trace profilers:
// the Figure 1 load-store conflict characterisation and the Figure 2
// address/value repeatability breakdown.
//
// Usage:
//
//	traceprof -workload perlbmk -instrs 500000
//	traceprof -all
package main

import (
	"flag"
	"fmt"
	"os"

	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "single workload to profile")
	all := flag.Bool("all", false, "profile every workload")
	instrs := flag.Uint64("instrs", 300_000, "dynamic instruction budget")
	flag.Parse()

	var pool []workloads.Workload
	switch {
	case *all:
		pool = workloads.All()
	case *name != "":
		w, ok := workloads.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		pool = []workloads.Workload{w}
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("%-12s %10s %8s %8s %8s | addr>=8 val>=64 (%% of loads)\n",
		"workload", "loads", "commit%", "infl%", "chg%")
	for _, w := range pool {
		conf := trace.NewConflictProfiler(trace.ConflictWindow)
		rep := trace.NewRepeatProfiler()
		r := w.Reader(*instrs)
		var rec trace.Rec
		for r.Next(&rec) {
			conf.Observe(&rec)
			rep.Observe(&rec)
		}
		cs := conf.Stats()
		rs := rep.Stats()
		fmt.Printf("%-12s %10d %8.2f %8.2f %8.2f | %6.1f %7.1f\n",
			w.Name, cs.Loads, cs.CommittedPct, cs.InFlightPct, cs.ChangedPct,
			rs.AddrCumPct[3], rs.ValueCumPct[6])
	}
}
