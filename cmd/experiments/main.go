// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run fig6] [-instrs 300000] [-workloads perlbmk,gcc]
//	            [-trace-cache-bytes 536870912] [-json]
//
// Without -run, every experiment is regenerated in paper order. Experiment
// ids: fig1 fig2 tab1 tab2 tab3 tab4 fig4 fig5 fig6 fig7 fig8 fig9 fig10.
// With -json, each experiment is emitted as the same machine-readable
// payload the dlvpd HTTP daemon serves from /v1/experiments/{id}.
//
// All simulation flows through internal/runner, so experiments that share
// configurations (every figure re-simulates the Table 4 baseline) reuse
// each other's runs via the content-addressed result cache.
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
	"time"

	"dlvp/internal/experiments"
	"dlvp/internal/runner"
	"dlvp/internal/tabletext"
	"dlvp/internal/tracecache"
	"dlvp/internal/workloads"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	instrs := flag.Uint64("instrs", 300_000, "dynamic instructions per workload")
	wl := flag.String("workloads", "", "comma-separated workload subset (default: all)")
	traceCacheBytes := flag.Int64("trace-cache-bytes", 512<<20, "byte budget for captured emulation traces replayed across configs; the default holds the 43 workloads' 300k-instruction captures (0: disabled)")
	charts := flag.Bool("charts", false, "also render per-workload tables as ASCII bar charts")
	asJSON := flag.Bool("json", false, "emit machine-readable artifacts (the dlvpd wire shape)")
	sampleIntervals := flag.Int("sample-intervals", 0, "run every matrix job as a checkpointed sampled simulation with this many intervals (0: full detailed runs)")
	sampleWarmup := flag.Uint64("sample-warmup", 0, "per-interval detailed warm-up instructions before measurement (0: stride/16)")
	sampleBudget := flag.Uint64("sample-budget", 0, "per-interval measured instructions (0: stride/8)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *instrs == 0 {
		fmt.Fprintln(os.Stderr, "-instrs must be positive: a zero-instruction budget simulates nothing")
		os.Exit(2)
	}

	p := experiments.DefaultParams()
	p.Instrs = *instrs
	p.Ctx = ctx
	if *sampleIntervals != 0 || *sampleWarmup != 0 || *sampleBudget != 0 {
		p.Sampling = &runner.SamplingSpec{
			Intervals:      *sampleIntervals,
			WarmupInstrs:   *sampleWarmup,
			MeasuredInstrs: *sampleBudget,
		}
		if _, err := p.Sampling.Normalize(p.Instrs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// Every experiment sweeps configurations over the same workloads, so
	// the trace cache collapses their emulation cost to once per workload.
	tc := tracecache.New(*traceCacheBytes)
	p.Runner = runner.New(runner.Options{TraceCache: tc})
	defer func() {
		s := tc.Stats()
		if s.Captures+s.Bypasses > 0 {
			fmt.Fprintf(os.Stderr, "trace cache: %d emulations, %d replays (%.0f%% hit), %d MiB resident\n",
				s.Emulations, s.Replays+s.Follows, 100*s.HitRatio(), s.ResidentBytes>>20)
		}
	}()
	if *wl != "" {
		p.Workloads = strings.Split(*wl, ",")
		for _, name := range p.Workloads {
			if _, ok := workloads.ByName(name); !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q; known workloads:\n", name)
				for _, w := range workloads.All() {
					fmt.Fprintf(os.Stderr, "  %-12s [%-7s] %s\n", w.Name, w.Suite, w.Description)
				}
				os.Exit(2)
			}
		}
	}

	var selected []experiments.Experiment
	if *run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known ids:\n", id)
				for _, e := range experiments.All() {
					fmt.Fprintf(os.Stderr, "  %-6s %s\n", e.ID, e.Name)
				}
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, e := range selected {
			artifact, err := e.RunArtifact(p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				os.Exit(1)
			}
			if err := enc.Encode(artifact); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("### %s  [%s, %d instrs/workload, %v]\n\n", e.ID, e.Name, p.Instrs, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			fmt.Println(t.String())
			if *charts && len(t.Header) > 1 && t.Header[0] == "workload" {
				// One chart per numeric series column.
				for col := 1; col < len(t.Header); col++ {
					c := tabletext.ChartFromColumn(t, col, t.Title+" — "+t.Header[col], "")
					if len(c.Bars) > 0 {
						fmt.Println(c.String())
					}
				}
			}
		}
	}
}
