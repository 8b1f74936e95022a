// Command tracedump captures workload traces to the binary trace format and
// inspects them.
//
// Usage:
//
//	tracedump -capture -workload perlbmk -instrs 100000 -o perlbmk.trace
//	tracedump -dump perlbmk.trace | head
//	tracedump -info perlbmk.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"dlvp/internal/isa"
	"dlvp/internal/trace"
	"dlvp/internal/workloads"
)

func main() {
	capture := flag.Bool("capture", false, "capture a workload trace")
	workload := flag.String("workload", "perlbmk", "workload to capture")
	instrs := flag.Uint64("instrs", 100_000, "dynamic instruction budget")
	out := flag.String("o", "out.trace", "output file for -capture")
	dump := flag.String("dump", "", "trace file to print as text")
	info := flag.String("info", "", "trace file to summarise")
	limit := flag.Int("n", 0, "max records to dump (0 = all)")
	flag.Parse()

	switch {
	case *capture:
		if err := doCapture(*workload, *instrs, *out); err != nil {
			fatal(err)
		}
	case *dump != "":
		if err := doDump(*dump, *limit); err != nil {
			fatal(err)
		}
	case *info != "":
		if err := doInfo(*info); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracedump:", err)
	os.Exit(1)
}

func doCapture(name string, instrs uint64, out string) error {
	w, ok := workloads.ByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	r := w.Reader(instrs)
	ovf := trace.OverflowOf(r)
	var rec trace.Rec
	var n uint64
	for r.Next(&rec) {
		if err := tw.Write(&rec, ovf); err != nil {
			return err
		}
		n++
	}
	if err := tw.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d records of %s to %s\n", n, name, out)
	return nil
}

func openTrace(path string) (*trace.FileReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewFileReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

func doDump(path string, limit int) error {
	r, f, err := openTrace(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var rec trace.Rec
	n := 0
	for r.Next(&rec) {
		line := fmt.Sprintf("%8d  %08x  %-8s", n, rec.PC, rec.Op)
		switch {
		case rec.IsLoad():
			line += fmt.Sprintf("  addr=%#x bytes=%d val=%#x", rec.Addr, rec.Bytes, rec.Vals[0])
		case rec.IsStore():
			line += fmt.Sprintf("  addr=%#x bytes=%d data=%#x", rec.Addr, rec.Bytes, rec.Vals[0])
		case rec.IsBranch():
			line += fmt.Sprintf("  taken=%v target=%#x", rec.Taken, rec.Target())
		}
		fmt.Println(line)
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return r.Err()
}

func doInfo(path string) error {
	r, f, err := openTrace(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var rec trace.Rec
	var total, loads, stores, branches, taken, multi uint64
	opCounts := make(map[isa.Op]uint64)
	for r.Next(&rec) {
		total++
		opCounts[rec.Op]++
		switch {
		case rec.IsLoad():
			loads++
			if rec.NDst > 1 {
				multi++
			}
		case rec.IsStore():
			stores++
		case rec.IsBranch():
			branches++
			if rec.Taken {
				taken++
			}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Printf("records   %d\n", total)
	fmt.Printf("loads     %d (%.1f%%), %d multi-destination\n", loads, pct(loads, total), multi)
	fmt.Printf("stores    %d (%.1f%%)\n", stores, pct(stores, total))
	fmt.Printf("branches  %d (%.1f%%), %.1f%% taken\n", branches, pct(branches, total), pct(taken, branches))
	return nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
