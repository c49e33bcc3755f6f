package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"memsci/internal/accel"
	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/lowprec"
	"memsci/internal/obs"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// DefaultRefineBits is the significand width of the default refinement
// inner configuration: 8 bits keeps slice counts (and ADC conversions)
// several times below the full-precision scheme while the fp64 outer
// loop still converges in a handful of sweeps on the evaluation corpus.
const DefaultRefineBits = 8

// refineLowprecBlockRows is the row-block granularity for the csr-backend
// lowprec inner operator (512 matches the paper's largest cluster).
const refineLowprecBlockRows = 512

// errAcquire tags engine-cache acquisition failures so handleSolve can
// keep their historical 422 mapping distinct from solver errors (400).
var errAcquire = errors.New("acquiring engine")

// acquireErr wraps an engine-cache acquisition failure so callers can
// match both the errAcquire tag and the underlying cause (e.g. a context
// error).
type acquireErr struct{ err error }

func (e *acquireErr) Error() string   { return "acquiring engine: " + e.err.Error() }
func (e *acquireErr) Unwrap() []error { return []error{errAcquire, e.err} }

// solveSpec is one fully validated solve: the parsed system, the
// normalized method/backend, the raw request bytes (for peer
// forwarding), and the engine-cache fingerprint (the sharding and cache
// key) with the cluster configuration it was computed from. Both the
// synchronous /solve path and the async job path produce a spec at
// admission time and execute it later.
type solveSpec struct {
	req     SolveRequest
	raw     []byte
	m       *sparse.CSR
	b       []float64
	method  string
	backend string
	// mode is "refine" for mixed-precision refinement, "" for direct.
	mode    string
	key     string
	ccfg    core.ClusterConfig
	tenant  string
	parseMS float64
}

// parseSolveRequest reads, decodes, and validates a solve request. On
// failure it writes the error response itself and returns nil — the
// status-code mapping is shared by /solve and job submission.
func (s *Server) parseSolveRequest(w http.ResponseWriter, r *http.Request) *solveSpec {
	start := time.Now()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// One buffer for a declared length, capped at the limit (+ ReadFrom's slack).
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), s.cfg.MaxBodyBytes)) + bytes.MinRead)
	_, err := body.ReadFrom(r.Body)
	raw := body.Bytes()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return nil
		}
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("reading request: %v", err))
		return nil
	}
	var req SolveRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return nil
	}

	coo, _, err := sparse.ReadMatrixMarket(strings.NewReader(req.Matrix))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return nil
	}
	if coo.Rows != coo.Cols {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("system must be square, got %dx%d", coo.Rows, coo.Cols))
		return nil
	}
	if coo.Rows > s.cfg.MaxRows || coo.NNZ() > s.cfg.MaxNNZ {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("system %dx%d with %d entries exceeds limits (%d rows, %d nnz)",
				coo.Rows, coo.Cols, coo.NNZ(), s.cfg.MaxRows, s.cfg.MaxNNZ))
		return nil
	}
	m := coo.ToCSR()

	b := req.B
	if b == nil {
		b = sparse.Ones(m.Rows())
	} else if len(b) != m.Rows() {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("b has %d entries, system has %d rows", len(b), m.Rows()))
		return nil
	}

	backend := strings.ToLower(req.Backend)
	if backend == "" {
		backend = "accel"
	}
	if backend != "accel" && backend != "csr" {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown backend %q (want accel or csr)", req.Backend))
		return nil
	}
	mode := strings.ToLower(req.Mode)
	switch mode {
	case "", "direct":
		mode = ""
	case "refine":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want direct or refine)", req.Mode))
		return nil
	}
	method := strings.ToLower(req.Method)
	if method == "" || method == "auto" {
		if m.IsSymmetric(1e-12) {
			method = "cg"
		} else {
			method = "bicgstab"
		}
	}
	switch method {
	case "cg", "bicgstab", "bicg", "gmres":
	default:
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("unknown method %q", req.Method))
		return nil
	}
	if mode == "refine" && method != "cg" && method != "bicgstab" {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("refine mode supports cg and bicgstab inner solves, not %s", method))
		return nil
	}
	if method == "bicg" && backend == "accel" {
		s.fail(w, http.StatusBadRequest, "bicg needs the transpose operator; use backend csr")
		return nil
	}
	if req.Jacobi && method != "cg" && method != "bicgstab" {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("jacobi preconditioning is not supported by %s", method))
		return nil
	}
	if req.Jacobi && mode == "refine" {
		s.fail(w, http.StatusBadRequest, "jacobi preconditioning is not supported in refine mode")
		return nil
	}

	tenant := r.Header.Get(apiKeyHeader)
	if tenant == "" {
		tenant = anonymousTenant
	}
	// Refine-mode accel solves lease engines programmed with the refine
	// cluster configuration, so their sharding/cache key must embed it —
	// otherwise a sharded cluster would route them to the owner of the
	// full-precision engine and program the matrix twice.
	ccfg := s.cfg.Cluster
	if mode == "refine" {
		ccfg = s.cfg.RefineCluster
	}
	return &solveSpec{
		req:     req,
		raw:     raw,
		m:       m,
		b:       b,
		method:  method,
		backend: backend,
		mode:    mode,
		key:     Fingerprint(m, ccfg, s.cfg.Seed),
		ccfg:    ccfg,
		tenant:  tenant,
		parseMS: msSince(start),
	}
}

// effectiveTimeout resolves the per-solve deadline: the client's request
// (capped at MaxTimeout) or the server default, further capped by the
// operator's hard SolveTimeout when set. It governs both synchronous
// solves and async job execution.
func (s *Server) effectiveTimeout(req *SolveRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	if s.cfg.SolveTimeout > 0 && timeout > s.cfg.SolveTimeout {
		timeout = s.cfg.SolveTimeout
	}
	return timeout
}

// execute runs one validated solve, or a batch of compatible queued
// CG jobs that share one engine (see batchable), under ctx, which
// carries the solve deadline. Every solve runs here: handleSolve passes
// its request as a one-item batch with no job, runQueued its dequeued
// jobs. execute gets the operator — an engine leased from the cache for
// the accel backend, the reference CSR operator or, for refine on csr,
// the lowprec datapath — runs the solver, and does each item's
// bookkeeping: program, solve and refresh spans under its span (a
// traced item's solve span with its per-iteration samples), the
// metrics, the response and the log line. A job's iterations also feed
// its SSE event log.
//
// resps has one entry per item; a nil entry failed with err, which
// wraps the acquisition, solver or context failure (a deadline is
// already counted in the timeout metric). Batch members that converged
// before a shared failure keep their response.
func (s *Server) execute(ctx context.Context, items []*queuedJob) (resps []*SolveResponse, err error) {
	if s.execHook != nil {
		s.execHook()
	}
	start := time.Now()
	resps = make([]*SolveResponse, len(items))
	spec := items[0].spec
	refine, batched := spec.mode == "refine", len(items) > 1

	ref := solver.CSROperator{M: spec.m}
	var op solver.Operator = ref
	var lease *Lease
	progStart := time.Now()
	switch {
	case spec.backend == "accel":
		if lease, err = s.cache.acquire(ctx, spec.key, spec.ccfg, spec.m); err != nil {
			err = &acquireErr{err: err}
			break
		}
		defer lease.Release()
		lease.Engine.TakeStats() // discard any stale window
		op = lease.Engine
		s.metrics.programSeconds.ObserveExemplar(time.Since(progStart).Seconds(), items[0].span.Context().TraceID)
	case refine:
		var lp *lowprec.Operator
		if lp, err = lowprec.New(spec.m, DefaultRefineBits, refineLowprecBlockRows); err != nil {
			err = fmt.Errorf("building lowprec inner operator: %w", err)
			break
		}
		op, _ = lp.ForRefinement()
	}
	programMS := msSince(progStart)
	if spec.backend == "accel" || refine {
		for _, it := range items {
			progSp := it.span.StartChildAt("program", progStart)
			if lease != nil {
				progSp.SetAttr("cache_hit", fmt.Sprint(lease.Hit))
			}
			progSp.End()
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.timeouts.Add(int64(len(items)))
		}
		return resps, err
	}

	// Every solve's monitor feeds the residual-reduction histogram; a job's, its SSE log.
	monitors := make([]solver.Monitor, len(items))
	solveSps := make([]*obs.Span, len(items))
	for i, it := range items {
		solveSps[i] = it.span.StartChild("solve")
		solveSps[i].SetAttr("method", spec.method)
		if refine {
			solveSps[i].SetAttr("mode", "refine")
		}
		monitors[i] = s.metrics.residualMonitor()
		if it.job != nil {
			events := it.job.Events
			monitors[i] = solver.Tee(monitors[i], func(iter int, rn float64) {
				events.Append(jobs.Event{Type: jobs.EventIteration, Iteration: iter, Residual: rn})
			})
		}
	}
	// Only a traced solve, which runs alone (see batchable), records
	// per-iteration samples. Its recorder baselines the engine's hardware
	// counters (just reset above) and snapshots a delta per iteration, so
	// the samples sum exactly to the stats window its solve span and
	// response report.
	var rec *obs.Recorder
	if spec.req.Trace {
		var sampler func() obs.HWCounters
		if lease != nil {
			sampler = lease.Engine.HWCounters
		}
		rec = obs.NewRecorder(solveSps[0], sampler)
		monitors[0] = solver.Tee(monitors[0], rec.Observe)
	}

	opt := solver.Options{Tol: spec.req.Tol, MaxIter: spec.req.MaxIter, Restart: spec.req.Restart, Ctx: ctx}
	if opt.Tol == 0 {
		opt.Tol = 1e-8
	}
	if spec.req.Jacobi {
		opt.Diag = spec.m.Diagonal()
	}
	solveStart := time.Now()
	results := make([]*solver.Result, len(items))
	outer := 0
	switch {
	case batched:
		bs := make([][]float64, len(items))
		for i, it := range items {
			bs[i] = it.spec.b
		}
		var batch []*solver.Result
		if batch, err = solver.CGBatch(lease.Engine, bs, opt, monitors); batch != nil {
			results = batch
		}
		s.metrics.batches.Inc()
		s.metrics.batchedJobs.Add(int64(len(items)))
		s.metrics.batchSize.Observe(float64(len(items)))
	case refine:
		// Each completed sweep gets its own span under the solve span,
		// charged retroactively when the outer monitor fires: the inner
		// solve plus the fp64 residual recomputation of that sweep.
		sweepStart := solveStart
		var rres *solver.RefineResult
		rres, err = solver.Refine(ref, op, spec.b, solver.RefineOptions{
			Tol:      spec.req.Tol,
			MaxOuter: spec.req.MaxOuter,
			Method:   spec.method,
			Inner:    solver.Options{Tol: spec.req.InnerTol, MaxIter: spec.req.InnerMaxIter, Monitor: monitors[0]},
			Monitor: func(sweep int, rn float64) {
				sweepSp := solveSps[0].StartChildAt("sweep", sweepStart)
				sweepSp.SetAttr("outer", fmt.Sprint(sweep))
				sweepSp.SetAttr("residual", fmt.Sprintf("%.3e", rn))
				sweepSp.End()
				sweepStart = time.Now()
			},
			Ctx: ctx,
		})
		if rres != nil {
			// Iterations mirrors the summed inner iterations, so consumers
			// that count work need not know the mode.
			results[0] = &solver.Result{X: rres.X, Iterations: rres.InnerIterations, Converged: rres.Converged, Residual: rres.Residual}
			outer = rres.Outer
		}
	default:
		opt.Monitor = monitors[0]
		results[0], err = runMethod(spec.method, op, spec.m, spec.b, opt)
	}

	solveSecs := time.Since(solveStart).Seconds()
	if rec != nil {
		rec.Finish() // before TakeStats resets the counters its last sample reads
	}
	var st core.ComputeStats
	var rs accel.RefreshStats
	if lease != nil {
		st = lease.Engine.TakeStats()
		if rs = lease.Engine.TakeRefreshStats(); rs != (accel.RefreshStats{}) {
			s.metrics.noteRefresh(rs)
		}
	}

	for i, it := range items {
		solveSps[i].End()
		s.metrics.solveSeconds.ObserveExemplar(solveSecs, it.span.Context().TraceID)
		s.metrics.solves.Inc()
		if lease != nil {
			// A batch member's solve span carries the whole batch's
			// hardware window with batch_size marked, as its response does.
			solveSps[i].SetHW(st.HWCounters())
		}
		if batched {
			solveSps[i].SetAttr("batch_size", fmt.Sprint(len(items)))
		}
		res := results[i]
		if res != nil {
			s.metrics.iterations.Observe(float64(res.Iterations))
			solveSps[i].SetAttr("iterations", strconv.Itoa(res.Iterations))
		}
		if err != nil && (res == nil || !res.Converged) {
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.timeouts.Inc()
			}
			continue
		}
		resp := &SolveResponse{
			X:          res.X,
			Iterations: res.Iterations,
			Converged:  res.Converged,
			Residual:   res.Residual,
			Breakdown:  res.Breakdown,
			Method:     spec.method,
			Backend:    spec.backend,
			Rows:       spec.m.Rows(),
			NNZ:        spec.m.NNZ(),
			RequestID:  it.id,
			Node:       s.cfg.NodeID,
			Timings: Timings{
				Parse:   it.spec.parseMS,
				Program: programMS,
				Solve:   msSince(solveStart),
				Total:   it.spec.parseMS + msSince(start),
			},
		}
		if refine {
			resp.Mode, resp.Outer, resp.InnerIterations = "refine", outer, res.Iterations
		}
		if batched {
			resp.BatchSize = len(items)
		}
		if lease != nil {
			resp.Cache = &CacheInfo{Hit: lease.Hit, Key: lease.Key}
			resp.Hardware = &st
			if rs != (accel.RefreshStats{}) {
				resp.Refresh = &rs
				refreshSp := it.span.StartChild("refresh")
				refreshSp.SetAttr("refreshes", fmt.Sprint(rs.Refreshes))
				refreshSp.SetAttr("cells", fmt.Sprint(rs.CellsReprogrammed))
				refreshSp.End()
			}
		}
		resps[i] = resp
		s.logger.Info("solve",
			"id", it.id,
			"mode", resp.Mode,
			"method", spec.method,
			"backend", spec.backend,
			"rows", resp.Rows,
			"nnz", resp.NNZ,
			"iterations", res.Iterations,
			"outer", outer,
			"batch_size", resp.BatchSize,
			"converged", res.Converged,
			"residual", res.Residual,
			"cache_hit", lease != nil && lease.Hit,
			"solve_ms", resp.Timings.Solve,
		)
	}
	return resps, err
}
