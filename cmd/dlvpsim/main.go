// Command dlvpsim runs one workload on the cycle-level core under a chosen
// value-prediction scheme and prints the run statistics. Simulations are
// submitted to the shared runner engine (internal/runner), the same
// execution path the experiment drivers and the dlvpd daemon use.
//
// Usage:
//
//	dlvpsim -workload perlbmk -scheme dlvp -instrs 300000
//	dlvpsim -workload perlbmk -scheme dlvp -timeline run.json
//	dlvpsim -list
//
// Every run records an interval flight-recorder series and a per-load-site
// attribution profile; -timeline and -sites write them as JSON, the input
// formats of dlvpstat show and dlvpstat sites.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dlvp/internal/config"
	"dlvp/internal/metrics"
	"dlvp/internal/runner"
	"dlvp/internal/tracecache"
	"dlvp/internal/uarch"
	"dlvp/internal/workloads"
)

func main() {
	name := flag.String("workload", "perlbmk", "workload to simulate")
	scheme := flag.String("scheme", "dlvp", strings.Join(config.SchemeNames(), " | "))
	instrs := flag.Uint64("instrs", 300_000, "dynamic instruction budget")
	compare := flag.Bool("compare", false, "also run the baseline and report speedup")
	list := flag.Bool("list", false, "list available workloads")
	disasm := flag.Bool("disasm", false, "print the workload's disassembly and exit")
	pipeview := flag.Int("pipeview", 0, "record and print the pipeline timeline of N instructions (after warmup)")
	traceCacheBytes := flag.Int64("trace-cache-bytes", 512<<20, "byte budget for captured emulation traces replayed across configs (0: disabled; speeds up -compare)")
	asJSON := flag.Bool("json", false, "emit the run statistics as JSON")
	timelineOut := flag.String("timeline", "", "write the run's flight-recorder timeline as JSON to this path (\"-\": stdout)")
	sitesOut := flag.String("sites", "", "write the run's per-load-site misprediction attribution profile as JSON to this path (\"-\": stdout)")
	sampleIntervals := flag.Int("sample-intervals", 0, "run as a checkpointed sampled simulation with this many intervals (0: full detailed run)")
	sampleWarmup := flag.Uint64("sample-warmup", 0, "per-interval detailed warm-up instructions before measurement (0: stride/16)")
	sampleBudget := flag.Uint64("sample-budget", 0, "per-interval measured instructions (0: stride/8)")
	flag.Parse()

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-12s [%-7s] %s\n", w.Name, w.Suite, w.Description)
		}
		return
	}

	w, ok := workloads.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *name)
		os.Exit(2)
	}
	if *disasm {
		fmt.Print(w.Build().Disasm())
		return
	}

	cfg, ok := config.ByScheme(*scheme)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q (known: %s)\n", *scheme, strings.Join(config.SchemeNames(), ", "))
		os.Exit(2)
	}
	if *instrs == 0 {
		fmt.Fprintln(os.Stderr, "-instrs must be positive: a zero-instruction run simulates nothing")
		os.Exit(2)
	}
	sampleFlags := *sampleIntervals != 0 || *sampleWarmup != 0 || *sampleBudget != 0
	if *pipeview > 0 {
		// The pipeview run bypasses the runner, which alone samples and
		// writes the timeline and the site profile.
		for _, c := range []struct {
			set  bool
			what string
		}{{sampleFlags, "sampling flags"}, {*timelineOut != "", "-timeline"}, {*sitesOut != "", "-sites"}} {
			if c.set {
				fmt.Fprintf(os.Stderr, "-pipeview runs the core outside the runner and cannot be combined with %s\n", c.what)
				os.Exit(2)
			}
		}
	}
	var sampling *runner.SamplingSpec
	if sampleFlags {
		sampling = &runner.SamplingSpec{
			Intervals:      *sampleIntervals,
			WarmupInstrs:   *sampleWarmup,
			MeasuredInstrs: *sampleBudget,
		}
		if _, err := sampling.Normalize(*instrs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	eng := runner.New(runner.Options{TraceCache: tracecache.New(*traceCacheBytes)})
	var s metrics.RunStats
	var sampled *runner.SampledInfo
	if *pipeview > 0 {
		// Stage tracing needs direct access to the core instance, so the
		// pipeview path bypasses the runner.
		core := uarch.New(cfg, w.Build(), w.Reader(*instrs))
		core.EnableStageTrace(*instrs/2, *pipeview) // after warmup
		s = core.Run(0)
		fmt.Print(uarch.FormatStageTraces(core.StageTraces()))
	} else {
		res, _, err := eng.RunResult(ctx, runner.Job{Workload: w.Name, Config: cfg, Instrs: *instrs, Sampling: sampling})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s = res.Stats
		sampled = res.Sampled
		if *timelineOut != "" {
			if err := writeIndentedJSON(*timelineOut, res.Timeline); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *sitesOut != "" {
			if err := writeIndentedJSON(*sitesOut, res.Sites); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var payload any = s
		if sampled != nil {
			payload = struct {
				Stats   metrics.RunStats    `json:"stats"`
				Sampled *runner.SampledInfo `json:"sampled"`
			}{s, sampled}
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload      %s (%s)\n", s.Workload, s.Scheme)
	fmt.Printf("instructions  %d (loads %d, stores %d)\n", s.Instructions, s.Loads, s.Stores)
	fmt.Printf("cycles        %d  (IPC %.3f)\n", s.Cycles, s.IPC())
	fmt.Printf("flushes       branch %d, value %d, ordering %d\n", s.BranchFlushes, s.ValueFlushes, s.OrderFlushes)
	fmt.Printf("caches        L1D miss %.2f%%, L2 miss %.2f%%, TLB miss %.3f%%\n", s.L1DMissRate, s.L2MissRate, s.TLBMissRate)
	if cfg.VP.Scheme != config.VPNone {
		fmt.Printf("value pred    coverage %.1f%%, accuracy %.2f%% (%d of %d eligible)\n",
			s.VP.Coverage(), s.VP.Accuracy(), s.VP.Predicted, s.VP.Eligible)
	}
	if s.PAQAllocated > 0 {
		fmt.Printf("DLVP          PAQ alloc %d (drop %.2f%%), probes %d (hit %d), prefetches %d\n",
			s.PAQAllocated, s.PAQDropRate(), s.Probes, s.ProbeHits, s.Prefetches)
		fmt.Printf("              LSCD inserts %d / filtered %d, way mispredicts %d\n",
			s.LSCDInserts, s.LSCDFiltered, s.WayMispredicts)
	}
	fmt.Printf("core energy   %.3g units\n", s.CoreEnergy)
	if sampled != nil {
		fmt.Printf("sampling      %d intervals, stride %d (warmup %d + measured %d each)\n",
			sampled.Intervals, sampled.StrideInstrs, sampled.WarmupInstrs, sampled.MeasuredInstrs)
		fmt.Printf("              detailed %d of %d instrs (%.1f%%), est. full-run cycles %d\n",
			sampled.DetailedInstrs, sampled.SpanInstrs,
			100*float64(sampled.DetailedInstrs)/float64(sampled.SpanInstrs), sampled.EstimatedCycles)
		fmt.Printf("              checkpoints: hit %d, chained %d, cold %d, coalesced %d\n",
			sampled.CheckpointHits, sampled.CheckpointChained, sampled.CheckpointCold, sampled.CheckpointCoalesced)
	}

	if *compare {
		base, _, err := eng.Run(ctx, runner.Job{Workload: w.Name, Config: config.Baseline(), Instrs: *instrs, Sampling: sampling})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("speedup       %+.2f%% over baseline (IPC %.3f -> %.3f)\n",
			metrics.SpeedupPct(base, s), base.IPC(), s.IPC())
		fmt.Printf("energy ratio  %.3f of baseline\n", s.CoreEnergy/base.CoreEnergy)
	}
}

// writeIndentedJSON writes v as indented JSON to path ("-" for stdout).
func writeIndentedJSON(path string, v any) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
