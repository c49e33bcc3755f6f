package serve

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"memsci/internal/accel"
	"memsci/internal/cluster"
	"memsci/internal/jobs"
	"memsci/internal/obs"
)

// Metrics is the serving telemetry: request/failure counters, the
// in-flight gauge, and log-bucketed latency and convergence histograms,
// all held in an obs.Registry that renders Prometheus text. The engine
// cache's counters are registered as scrape-time funcs so they stay
// owned by the cache. This replaces the earlier hand-rolled sum-only
// counters — sums cannot answer "what is p99 solve latency", histograms
// can.
type Metrics struct {
	reg *obs.Registry

	requests *obs.Counter
	failures *obs.Counter
	inFlight *obs.Gauge
	solves   *obs.Counter

	// solveSeconds / programSeconds are wall-clock histograms; their
	// _sum series carry what the old *_seconds_total counters did.
	solveSeconds   *obs.Histogram
	programSeconds *obs.Histogram
	// iterations histograms iterations-per-solve; residualReduction
	// histograms the per-iteration residual contraction factor
	// r_k/r_{k-1} (the convergence-rate distribution, §IV).
	iterations        *obs.Histogram
	residualReduction *obs.Histogram

	// Online-refresh work (engines with an armed accel.RefreshPolicy):
	// cluster re-programmings, cells rewritten, and the write energy
	// charged, folded in per solve from Engine.TakeRefreshStats.
	refreshes     *obs.Counter
	refreshCells  *obs.Counter
	refreshEnergy *obs.Counter // nanojoules; counters are integers

	// Admission control and cluster behavior: every shed, quota denial,
	// timeout, forward, and fallback is counted so operators can see the
	// cluster working (or degrading) from /metrics alone.
	timeouts        *obs.Counter
	sheds           *obs.Counter
	quotaDenied     *obs.Counter
	forwarded       *obs.Counter
	forwardFallback *obs.Counter

	// Async job flow: submissions, multi-RHS batch executions, and how
	// long jobs waited in the queue.
	jobsSubmitted *obs.Counter
	batches       *obs.Counter
	batchedJobs   *obs.Counter
	batchSize     *obs.Histogram
	queueWait     *obs.Histogram
}

func newMetrics(cache *Cache) *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:      reg,
		requests: reg.Counter("memserve_requests_total", "Completed /solve requests."),
		failures: reg.Counter("memserve_request_failures_total", "Requests answered with an error status."),
		inFlight: reg.Gauge("memserve_inflight_solves", "Solves currently executing."),
		solves:   reg.Counter("memserve_solves_total", "Solver invocations."),
		solveSeconds: reg.Histogram("memserve_solve_seconds",
			"Solve wall-clock time.", obs.ExpBuckets(1e-4, 2, 16)), // 0.1ms .. ~3.3s
		programSeconds: reg.Histogram("memserve_program_seconds",
			"Engine-acquisition wall-clock time (programming on misses).", obs.ExpBuckets(1e-4, 2, 16)),
		iterations: reg.Histogram("memserve_solve_iterations",
			"Solver iterations per solve.", obs.ExpBuckets(1, 2, 14)), // 1 .. 8192
		residualReduction: reg.Histogram("memserve_residual_reduction",
			"Per-iteration residual contraction factor r_k/r_k-1.", obs.ExpBuckets(1.0/1024, 2, 12)), // ~0.001 .. 2
		refreshes: reg.Counter("memserve_refresh_total",
			"Cluster re-programmings triggered by the online refresh policy."),
		refreshCells: reg.Counter("memserve_refresh_cells_total",
			"Crossbar cells rewritten by online refresh."),
		refreshEnergy: reg.Counter("memserve_refresh_energy_nanojoules_total",
			"Programming energy charged to online refresh, in nanojoules."),
		timeouts: reg.Counter("memserve_solve_timeouts_total",
			"Solves aborted by the per-solve deadline."),
		sheds: reg.Counter("memserve_load_sheds_total",
			"Requests refused by admission control (503 + Retry-After)."),
		quotaDenied: reg.Counter("memserve_quota_denied_total",
			"Submissions refused by per-tenant token-bucket quotas (429)."),
		forwarded: reg.Counter("memserve_forwarded_total",
			"Requests relayed to the owning peer on the hash ring."),
		forwardFallback: reg.Counter("memserve_forward_fallback_total",
			"Forwards that failed and degraded to a local solve."),
		jobsSubmitted: reg.Counter("memserve_jobs_submitted_total",
			"Async jobs admitted to the work queue."),
		batches: reg.Counter("memserve_batches_total",
			"Multi-RHS batch executions coalesced from compatible queued jobs."),
		batchedJobs: reg.Counter("memserve_batched_jobs_total",
			"Jobs executed as members of a multi-RHS batch."),
		batchSize: reg.Histogram("memserve_batch_size",
			"Jobs coalesced per batch execution.", obs.ExpBuckets(1, 2, 6)), // 1 .. 32
		queueWait: reg.Histogram("memserve_job_queue_wait_seconds",
			"Time async jobs spent queued before a worker picked them up.", obs.ExpBuckets(1e-4, 2, 16)),
	}

	counter := func(name, help string, f func(CacheStats) int64) {
		reg.CounterFunc(name, help, func() int64 { return f(cache.Stats()) })
	}
	counter("memserve_cache_hits_total", "Engine-cache acquisitions served from a resident entry.",
		func(cs CacheStats) int64 { return cs.Hits })
	counter("memserve_cache_misses_total", "Engine-cache acquisitions that initiated programming.",
		func(cs CacheStats) int64 { return cs.Misses })
	counter("memserve_cache_coalesced_total", "Acquisitions deduplicated onto another request's programming.",
		func(cs CacheStats) int64 { return cs.Coalesced })
	counter("memserve_cache_evictions_total", "Entries evicted by the LRU cluster bound.",
		func(cs CacheStats) int64 { return cs.Evictions })
	counter("memserve_cache_programmings_total", "Engines programmed from scratch.",
		func(cs CacheStats) int64 { return cs.Programmings })
	counter("memserve_cache_forks_total", "Pool engines materialized by forking programmed state.",
		func(cs CacheStats) int64 { return cs.Forks })
	reg.GaugeFunc("memserve_cache_entries", "Resident cache entries.",
		func() int64 { return int64(cache.Stats().Entries) })
	reg.GaugeFunc("memserve_cache_clusters", "Programmed clusters held by resident entries.",
		func() int64 { return int64(cache.Stats().Clusters) })
	return m
}

// registerClusterFuncs registers scrape-time gauges over the server's
// admission and job state. Separate from newMetrics because the queue
// and store hang off the Server, which needs the Metrics first. The
// per-state job gauges share one jobCounts call per scrape: a call
// sweeps the store and takes every resident job's lock under the store
// mutex.
func (m *Metrics) registerClusterFuncs(queueLen func() int, jobCounts func() map[jobs.State]int) {
	m.reg.GaugeFunc("memserve_queue_depth", "Async jobs waiting for a worker.",
		func() int64 { return int64(queueLen()) })
	states := []jobs.State{
		jobs.StateQueued, jobs.StateRunning, jobs.StateDone,
		jobs.StateFailed, jobs.StateTimeout, jobs.StateShed,
	}
	specs := make([]obs.FuncSpec, len(states))
	for i, st := range states {
		specs[i] = obs.FuncSpec{Name: "memserve_jobs_" + string(st), Help: "Resident async jobs in state " + string(st) + "."}
	}
	m.reg.FuncGroup(specs, func(dst []int64) {
		counts := jobCounts()
		for i, st := range states {
			dst[i] = int64(counts[st])
		}
	})
}

// registerRuntimeFuncs registers build/runtime self-metrics: a
// memserve_build_info info gauge (module version and Go toolchain from
// the embedded build info), plus scrape-time goroutine, GC, and heap
// gauges read from the runtime — the "is this process healthy" floor
// every node exports before any request arrives. The GC and heap
// series share one readMemStats call per scrape, since
// runtime.ReadMemStats stops the world.
func (m *Metrics) registerRuntimeFuncs(readMemStats func(*runtime.MemStats)) {
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	m.reg.Info("memserve_build_info", "Build metadata; value is always 1.",
		obs.Label{Name: "version", Value: version},
		obs.Label{Name: "go_version", Value: runtime.Version()})
	m.reg.GaugeFunc("memserve_goroutines", "Live goroutines.",
		func() int64 { return int64(runtime.NumGoroutine()) })
	m.reg.FuncGroup([]obs.FuncSpec{
		{Name: "memserve_gc_runs_total", Help: "Completed GC cycles.", Counter: true},
		{Name: "memserve_gc_pause_nanoseconds_total", Help: "Cumulative GC stop-the-world pause time.", Counter: true},
		{Name: "memserve_heap_alloc_bytes", Help: "Bytes of allocated heap objects."},
	}, func(dst []int64) {
		var ms runtime.MemStats
		readMemStats(&ms)
		dst[0], dst[1], dst[2] = int64(ms.NumGC), int64(ms.PauseTotalNs), int64(ms.HeapAlloc)
	})
}

// noteRefresh folds one solve's refresh-stats delta into the counters.
func (m *Metrics) noteRefresh(rs accel.RefreshStats) {
	m.refreshes.Add(int64(rs.Refreshes))
	m.refreshCells.Add(int64(rs.CellsReprogrammed))
	m.refreshEnergy.Add(int64(math.Round(rs.WriteEnergyJoules * 1e9)))
}

// residualMonitor returns one solve's solver monitor for the
// residual-reduction histogram: each iteration observes r_k/r_k-1.
func (m *Metrics) residualMonitor() func(int, float64) {
	prev := 1.0 // residuals are relative to ‖b‖, so the trajectory starts at 1
	return func(_ int, rn float64) {
		if prev > 0 {
			m.residualReduction.Observe(rn / prev)
		}
		prev = rn
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// federationTimeout bounds the whole peer-scraping fan-out behind one
// /cluster/metrics request.
const federationTimeout = 5 * time.Second

// nodeLabel is the node="..." value this server's series carry in
// federated output.
func (s *Server) nodeLabel() string {
	if s.cfg.NodeID != "" {
		return s.cfg.NodeID
	}
	return "local"
}

// handleClusterMetrics serves the federated view: this node's registry
// rendered locally (no self-scrape over HTTP — the server may not know
// its own public URL) merged with every peer's /metrics fetched
// concurrently, all node-labeled. Peers that fail to answer show up as
// memserve_federation_up 0 rather than failing the merge.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), federationTimeout)
	defer cancel()

	var local bytes.Buffer
	s.metrics.reg.WritePrometheus(&local)
	scrapes := []cluster.NodeMetrics{{ID: s.nodeLabel(), Text: local.Bytes()}}

	var peers []cluster.Peer
	for _, p := range s.cfg.Peers {
		if p.ID != s.cfg.NodeID {
			peers = append(peers, p)
		}
	}
	if len(peers) > 0 {
		results := make([]cluster.NodeMetrics, len(peers))
		var wg sync.WaitGroup
		for i, p := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = cluster.FetchMetrics(ctx, s.fedClient, p)
			}()
		}
		wg.Wait()
		scrapes = append(scrapes, results...)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cluster.MergeMetrics(scrapes, w)
}
