// Command memserve runs the solver-as-a-service HTTP front end: it
// accepts MatrixMarket systems over POST /solve, solves them with a
// chosen Krylov method on the functional accelerator engine (or the CSR
// reference operator), and amortizes the dominant cluster-programming
// cost across requests through a content-hashed engine cache.
//
//	memserve -addr :8080 &
//	curl -s http://localhost:8080/solve -d '{"matrix":"%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4\n2 2 4\n2 1 -1\n"}'
//
// Long solves run asynchronously: POST /v1/jobs returns a job ID, GET
// /v1/jobs/{id} polls it, and GET /v1/jobs/{id}/events streams the
// per-iteration residual trace as Server-Sent Events. Admission control
// bounds the process (-max-concurrent executing, -queue-depth waiting,
// 503 + Retry-After past that), and -tenant-rate arms per-API-key
// quotas.
//
// With -peers and -node-id, processes form a consistent-hash ring over
// matrix fingerprints: each matrix is programmed on exactly one owning
// node, non-owners forward solves and job submissions there, and fall
// back to solving locally when the owner is unreachable.
//
// GET /healthz reports liveness; GET /readyz reports routability (503
// while draining or saturated — point load balancers here); GET
// /metrics exposes latency and iteration histograms plus cache,
// admission, and cluster counters in Prometheus text format; GET
// /cluster/metrics federates every peer's /metrics into one node-labeled
// view; GET /debug/traces returns the span trees of recent solves.
// Every response carries a phase-attributed span tree (disable with
// -tracing=false), with per-iteration samples on its solve span when the
// request sets "trace": true; forwarded solves propagate W3C traceparent
// context so one trace covers both nodes. With
// -debug-addr set, a second listener serves net/http/pprof (plus the
// same traces and metrics) for profiling without exposing pprof to
// solve traffic. Requests carry X-Request-Id and are logged structured
// via log/slog. On SIGINT/SIGTERM the server stops accepting new work,
// drains queued and in-flight solves within -drain, then exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memsci/internal/accel"
	"memsci/internal/cluster"
	"memsci/internal/core"
	"memsci/internal/parallel"
	"memsci/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof and /debug/traces (empty = disabled)")
	maxClusters := flag.Int("cache-clusters", serve.DefaultMaxClusters, "engine-cache capacity in programmed clusters, shared by direct and refine engines (the chip substrate holds 2048)")
	pool := flag.Int("pool", serve.DefaultPoolSize, "engines per cache entry (parallel solves on one matrix)")
	par := flag.Int("engine-par", 1, "workers a batched solve spreads its right-hand sides over, per engine (0 = GOMAXPROCS)")
	maxBody := flag.Int64("max-body", 8<<20, "request body limit in bytes")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request solve deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
	solveTimeout := flag.Duration("solve-timeout", 0, "hard per-solve execution deadline, sync and async (0 = disabled)")
	seed := flag.Int64("seed", 1, "device-error seed base for programmed engines")
	inject := flag.Bool("inject-errors", false, "enable the analog device-error model")
	refresh := flag.Bool("refresh", false, "arm the AN-code-driven online refresh policy on programmed engines")
	refineBits := flag.Int("refine-bits", serve.DefaultRefineBits, "significand bits of the mode:refine inner engines")
	refineWindow := flag.Int("refine-window", 0, "per-block exponent window of the mode:refine inner engines (0 = full alignment, ReFloat-style when set)")
	refreshRate := flag.Float64("refresh-rate", 0, "windowed AN detection-rate threshold that triggers a cluster refresh (0 = policy default)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for queued and in-flight solves")
	traceRing := flag.Int("trace-ring", 64, "span trees of recent solves kept for /debug/traces")
	tracing := flag.Bool("tracing", true, "phase-attributed distributed tracing: span trees on responses, traceparent propagation on forwards, exemplars on latency histograms")
	nodeID := flag.String("node-id", "", "this node's ID in -peers (required when -peers is set)")
	peersFlag := flag.String("peers", "", "static cluster membership as id=url,... including this node (empty = single node)")
	fwdAttempts := flag.Int("forward-attempts", 0, "tries per peer-forwarded request before local fallback (0 = 3)")
	fwdBackoff := flag.Duration("forward-backoff", 0, "initial retry backoff for peer forwarding, doubling per retry (0 = 50ms)")
	maxConcurrent := flag.Int("max-concurrent", 0, "solves executing at once, sync and async combined (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", serve.DefaultQueueDepth, "bounded work queue; past it requests shed with 503 + Retry-After")
	maxQueueAge := flag.Duration("max-queue-age", serve.DefaultMaxQueueAge, "queued jobs older than this are shed at dequeue (negative = disabled)")
	jobCapacity := flag.Int("job-capacity", serve.DefaultJobCapacity, "resident async jobs, finished included")
	jobTTL := flag.Duration("job-ttl", 10*time.Minute, "how long finished jobs stay pollable")
	batchMax := flag.Int("batch-max", serve.DefaultBatchMax, "compatible queued jobs coalesced into one multi-RHS batch (1 = disabled)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-API-key solve admissions per second (0 = quotas disabled)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-API-key token-bucket burst (0 = ceil(rate))")
	printConfig := flag.Bool("print-config", false, "print the effective configuration as JSON and exit")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	verbose := flag.Bool("v", false, "debug-level logging (includes /healthz and /metrics access lines)")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, opts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, opts)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	ccfg := core.DefaultClusterConfig()
	ccfg.InjectErrors = *inject

	rcfg := core.ReducedSliceConfig(*refineBits)
	if *refineWindow > 0 {
		rcfg = core.BlockExpConfig(*refineBits, *refineWindow)
	}
	rcfg.InjectErrors = *inject

	var policy *accel.RefreshPolicy
	if *refresh {
		p := accel.DefaultRefreshPolicy()
		if *refreshRate > 0 {
			p.DetectedRate = *refreshRate
		}
		policy = &p
	}

	var peers []cluster.Peer
	if *peersFlag != "" {
		var err error
		peers, err = cluster.ParsePeers(*peersFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memserve: -peers: %v\n", err)
			os.Exit(2)
		}
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "memserve: -peers requires -node-id")
			os.Exit(2)
		}
	}

	srv := serve.New(serve.Config{
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		SolveTimeout:   *solveTimeout,
		Cluster:        ccfg,
		RefineCluster:  rcfg,
		Seed:           *seed,
		Refresh:        policy,
		Cache: serve.CacheConfig{
			MaxClusters:       *maxClusters,
			PoolSize:          *pool,
			EngineParallelism: *par,
		},
		Logger:          logger,
		TraceRingSize:   *traceRing,
		DisableTracing:  !*tracing,
		NodeID:          *nodeID,
		Peers:           peers,
		ForwardAttempts: *fwdAttempts,
		ForwardBackoff:  *fwdBackoff,
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      *queueDepth,
		MaxQueueAge:     *maxQueueAge,
		JobCapacity:     *jobCapacity,
		JobTTL:          *jobTTL,
		BatchMax:        *batchMax,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
		DrainGrace:      *drain,
	})
	defer srv.Close()

	if *printConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cfg := srv.EffectiveConfig()
		cfg["addr"] = *addr
		cfg["debug_addr"] = *debugAddr
		if err := enc.Encode(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "memserve: encoding config: %v\n", err)
			os.Exit(1)
		}
		return
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()

	var ds *http.Server
	if *debugAddr != "" {
		ds = &http.Server{
			Addr:              *debugAddr,
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() { errc <- ds.ListenAndServe() }()
	}

	logger.Info("memserve listening",
		"addr", *addr,
		"debug_addr", *debugAddr,
		"node_id", *nodeID,
		"peers", len(peers),
		"cache_clusters", *maxClusters,
		"pool_size", *pool,
		"engine_parallelism", parallel.Clamp(*par, 1<<30),
		"inject_errors", *inject,
		"refresh", *refresh,
		"default_timeout", *timeout,
		"max_timeout", *maxTimeout,
		"solve_timeout", *solveTimeout,
		"queue_depth", *queueDepth,
		"tenant_rate", *tenantRate,
		"max_body_bytes", *maxBody,
		"trace_ring", *traceRing,
		"tracing", *tracing,
	)

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("memserve listener failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		// Ordered shutdown: flip /readyz to draining so load balancers
		// route away, finish queued and in-flight jobs within the grace
		// period, then close the listeners and the worker pool.
		logger.Info("memserve shutting down, draining jobs and in-flight solves", "grace", *drain)
		srv.StartDrain()
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.DrainJobs(shCtx); err != nil {
			logger.Warn("memserve drain incomplete", "err", err)
		}
		if ds != nil {
			_ = ds.Shutdown(shCtx)
		}
		if err := hs.Shutdown(shCtx); err != nil {
			logger.Error("memserve shutdown", "err", err)
		}
	}
}
