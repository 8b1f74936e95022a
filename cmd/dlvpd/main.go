// Command dlvpd serves the simulator as an HTTP daemon.
//
// Usage:
//
//	dlvpd [-addr :8080] [-workers 8] [-cache 4096] [-timeout 2m]
//	      [-trace-cache-bytes 536870912] [-checkpoint-bytes 268435456]
//	      [-matrix-dir /var/lib/dlvp/matrices] [-matrix-shard-workers 2]
//	      [-peers http://h1:8080,http://h2:8080] [-self name]
//	      [-health-interval 3s]
//	      [-log-format json|text] [-log-level debug|info|warn|error]
//	      [-debug-addr :6060] [-version]
//
// With -peers, the daemon forms a cluster: each job routes through
// internal/dispatch, which rendezvous-hashes the job's content address
// over {local, peers} so identical jobs land on the peer already holding
// their cached result. Failing peers are health-checked, ejected with
// exponential backoff, and reinstated automatically; retryable failures
// re-route; and when every peer is down, jobs fall back to the local
// engine — a clustered daemon never does worse than standalone mode.
// GET /v1/cluster reports the ring state.
//
// POST /v1/matrices runs a whole (workload x scheme) sweep as per-workload
// shards scattered over the ring with work-stealing; GET
// /v1/matrices/{id}/stream tails partial result tables over SSE. With
// -matrix-dir, sweep state persists across restarts: a matrix interrupted
// by shutdown resumes on the next boot, re-running only its unfinished
// shards (completed shards' results are restored from disk, and re-run
// cells usually hit the peers' content-addressed result caches).
//
// The daemon wraps the shared runner engine (internal/runner) behind the
// internal/server API: POST /v1/runs executes one simulation, POST
// /v1/experiments/{id} regenerates a paper artifact as JSON, GET /v1/jobs
// lists async submissions and GET /v1/jobs/{id} polls one, and /v1/stats +
// /metrics expose queue depths, cache hit ratios, latency histograms, and
// simulated instructions per second in the Prometheus text format.
// Identical requests are served from content-addressed caches.
//
// Every executed simulation records an interval flight-recorder timeline
// (one sample per 100k committed instructions, at most 512 samples) and a
// per-load-site attribution profile (at most 1024 sites). Async run jobs
// serve the timeline at GET /v1/runs/{id}/timeline (?format=prom for
// Prometheus text), stream it live over Server-Sent Events at GET
// /v1/runs/{id}/timeline/stream, and serve the profile at GET
// /v1/runs/{id}/sites.
//
// Every request gets a trace ID (X-Request-ID honoured and echoed) and
// trace context is propagated across the cluster: forwarded jobs and
// matrix shards carry a traceparent header, so every daemon that touches
// a request records spans under the same trace. GET /v1/traces/{id}
// serves this daemon's local spans; GET /v1/traces/{id}?cluster=1
// scrapes every healthy peer and stitches one cross-process tree with
// retries and stolen shards marked (rendered by
// `dlvpstat trace`). GET /v1/cluster/metrics federates every member's
// Prometheus exposition under instance labels, annotating unreachable
// peers instead of failing. With -debug-addr set, a separate admin
// listener serves net/http/pprof, a runtime/metrics snapshot at
// /debug/runtime, and the metrics exposition.
//
// On SIGINT/SIGTERM the daemon marks /healthz as draining (503), stops
// accepting connections, drains in-flight requests and background jobs,
// then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dlvp/internal/checkpoint"
	"dlvp/internal/dispatch"
	"dlvp/internal/matrix"
	"dlvp/internal/obs"
	"dlvp/internal/runner"
	"dlvp/internal/server"
	"dlvp/internal/tracecache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0: NumCPU)")
	cache := flag.Int("cache", 0, "result cache entries (0: default, negative: disabled)")
	traceCacheBytes := flag.Int64("trace-cache-bytes", 512<<20, "byte budget for captured emulation traces replayed across configs; the default retains 31 complete 300k-instruction captures (0: disabled)")
	checkpointBytes := flag.Int64("checkpoint-bytes", 0, "byte budget for the architectural checkpoint store backing sampled runs (0: default 256 MiB)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout for synchronous calls")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for draining work")
	matrixDir := flag.String("matrix-dir", "", "directory persisting matrix sweep state for resume after restart (empty: in-memory only)")
	matrixWorkers := flag.Int("matrix-shard-workers", 0, "concurrent shards per dispatch target during matrix sweeps (0: default 2)")
	peers := flag.String("peers", "", "comma-separated peer base URLs (e.g. http://10.0.0.2:8080) forming the dispatch ring")
	self := flag.String("self", "", "this daemon's name in the dispatch ring; peers should use the same string as its URL (empty: \"local\")")
	healthInterval := flag.Duration("health-interval", dispatch.DefaultHealthInterval, "peer health probe cadence")
	logFormat := flag.String("log-format", "json", "log output format: json or text")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	debugAddr := flag.String("debug-addr", "", "admin listen address for pprof + runtime metrics (empty: disabled)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *showVersion {
		bi := server.ReadBuildInfo()
		fmt.Printf("dlvpd %s %s", bi.Version, bi.GoVersion)
		if bi.Revision != "" {
			fmt.Printf(" %s", bi.Revision)
			if bi.Modified {
				fmt.Print("+dirty")
			}
		}
		fmt.Println()
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		// The logger itself is misconfigured, so plain stderr is all we have.
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(2)
	}
	ob := obs.NewObserver(logger)

	eng := runner.New(runner.Options{
		Workers:      *workers,
		CacheEntries: *cache,
		Obs:          ob,
		TraceCache:   tracecache.New(*traceCacheBytes),
		Checkpoints:  checkpoint.NewStore(*checkpointBytes),
	})

	var peerBackends []dispatch.Backend
	for _, raw := range strings.Split(*peers, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		b, err := dispatch.NewHTTPBackend(raw, dispatch.HTTPOptions{Timeout: *timeout})
		if err != nil {
			logger.Error("invalid -peers entry", "peer", raw, "error", err)
			os.Exit(2)
		}
		peerBackends = append(peerBackends, b)
	}
	disp, err := dispatch.New(dispatch.Options{
		Local:          dispatch.NewLocalBackend(*self, eng),
		Peers:          peerBackends,
		HealthInterval: *healthInterval,
		Obs:            ob,
	})
	if err != nil {
		logger.Error("dispatcher construction failed", "error", err)
		os.Exit(2)
	}
	defer disp.Close()

	var matrixStore *matrix.Store
	if *matrixDir != "" {
		matrixStore, err = matrix.NewStore(*matrixDir)
		if err != nil {
			logger.Error("matrix store unavailable", "dir", *matrixDir, "error", err)
			os.Exit(2)
		}
	}
	orch := matrix.New(matrix.Options{
		Cluster:          disp,
		Store:            matrixStore,
		Obs:              ob,
		WorkersPerTarget: *matrixWorkers,
	})
	if matrixStore != nil {
		resumed, err := orch.Resume()
		if err != nil {
			logger.Warn("matrix resume incomplete", "dir", *matrixDir, "error", err)
		}
		if resumed > 0 {
			logger.Info("resumed interrupted matrices", "count", resumed, "dir", *matrixDir)
		}
	}

	srv := server.New(server.Options{Runner: eng, Dispatcher: disp, Matrix: orch, RequestTimeout: *timeout, Obs: ob})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.AdminMux(ob.Metrics),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("dlvpd listening", "addr", *addr, "workers", eng.Stats().Workers,
		"peers", disp.Peers())

	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	// Flip /healthz to 503 first so load balancers drop the instance, then
	// close listeners and drain.
	srv.BeginShutdown()
	logger.Info("shutting down", "grace", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown incomplete", "error", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain incomplete", "error", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	// Stopping the orchestrator before srv.Close persists interrupted
	// matrices as resumable (still "running" on disk) rather than
	// cancelled; -matrix-dir picks them up on the next boot.
	orch.Close()
	srv.Close()
	logger.Info("dlvpd stopped")
}
