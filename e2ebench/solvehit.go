package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/matgen"
	"memsci/internal/serve"
	"memsci/internal/sparse"
)

// solve-hit: one client sends synchronous POST /solve requests, cycling
// over a few resident SPD operators that set-up primed in both engine
// caches. Three of every four requests are direct CG at tol 1e-8; the
// fourth is mode:refine. This is the steady serving path: Engine.Apply
// does nearly all the work and programming does none.
const (
	hitOperators = 4
	hitRows      = 128
	hitTol       = 1e-8
	refineTol    = 1e-10
)

// hitSpec is resident operator k: a banded matgen stand-in that blocks
// into one 128×128 crossbar cluster. The operators do not depend on the
// seed, so every seed does the same work per solve; the seed drives the
// right-hand sides. With exponent spread 3 the four take 24–27 CG
// iterations, so direct solves form one latency cluster and the p50 does
// not fall between per-operator clusters.
func hitSpec(k int) matgen.Spec {
	return matgen.Spec{Name: fmt.Sprintf("hit%d", k), Rows: hitRows, NNZ: hitRows * 9, SPD: true,
		Class: matgen.Banded, Band: 16, ExpSpread: 3, Seed: 1000 + int64(k), DiagMargin: 1}
}

// hitOp maps operation idx to its operator and mode. Operations come in
// pairs (2j, 2j+1) on the same operator and mode, so the traced run's
// untraced (even) and traced (odd) operations do the same mix of work.
// Pairs cycle over the operators, and in each run of hitOperators
// consecutive pairs exactly one, on a rotating operator, is a refine
// solve.
func hitOp(idx int64) (k int, refine bool) {
	pair := idx / 2
	k = int(pair % hitOperators)
	return k, (pair/hitOperators)%hitOperators == int64(k)
}

type hitOperator struct {
	m    *sparse.CSR
	mm   string
	plan *blocking.Plan // set by setupTrace
}

type solveHit struct {
	o   options
	h   *harness
	ops []hitOperator
	// refine is the traced run's own cache of refine engines, programmed
	// like the server's second cache; the direct replay leases from the
	// server's own first cache.
	refine *serve.Cache
}

func setupSolveHit(o options) (system, error) {
	w := &solveHit{o: o}
	for k := 0; k < hitOperators; k++ {
		m := hitSpec(k).Generate()
		w.ops = append(w.ops, hitOperator{m: m, mm: matrixMarket(m)})
	}
	h, err := startHarness(serveConfig(serve.DefaultMaxClusters))
	if err != nil {
		return nil, err
	}
	w.h = h
	// Prime both engine caches, which also warms the request path: one
	// direct and one refine solve per operator, answers checked.
	for k := range w.ops {
		for i, refine := range []bool{false, true} {
			oc, _, _, _ := w.post(-1-int64(2*k+i), k, refine, nil, -1)
			if !oc.ok {
				h.close()
				return nil, fmt.Errorf("priming operator %d (refine %v): %w", k, refine, oc.err)
			}
		}
	}
	return w, nil
}

func (w *solveHit) close()           { w.h.close() }
func (w *solveHit) evictions() int64 { return w.h.srv.Cache().Stats().Evictions }

func (w *solveHit) op(idx int64) outcome {
	k, refine := hitOp(idx)
	oc, _, _, _ := w.post(idx, k, refine, nil, -1)
	return oc
}

// request builds the body of a solve of operator k with operation idx's
// seeded right-hand side.
func (w *solveHit) request(idx int64, k int, refine bool) ([]float64, []byte, error) {
	b := rhs(hitRows, splitmix(w.o.seed, idx))
	req := serve.SolveRequest{Matrix: w.ops[k].mm, B: b, Method: "cg", Tol: hitTol}
	if refine {
		req.Mode, req.Tol = "refine", refineTol
	}
	body, err := json.Marshal(&req)
	return b, body, err
}

// post sends one solve over loopback and checks the answer. It returns
// the decoded response, the request body and the right-hand side for the
// traced replay.
func (w *solveHit) post(idx int64, k int, refine bool, tr *opTrace, parent int) (outcome, *serve.SolveResponse, []byte, []float64) {
	op := w.ops[k]
	b, body, err := w.request(idx, k, refine)
	if err != nil {
		return failed(idx, err), nil, nil, nil
	}
	limit := 10 * hitTol
	if refine {
		limit = refineTol
	}
	oc := outcome{idx: idx, reqBytes: len(body)}
	start := time.Now()
	sp := tr.begin(parent, "http.loopback")
	ex, err := w.h.do("POST", "/solve", body)
	tr.end(sp)
	if err == nil && !ok2xx(ex.status) {
		err = statusErr("POST /solve", ex)
	}
	if err != nil {
		oc.err = err
		return oc, nil, nil, nil
	}
	oc.respBytes = len(ex.body)
	cs := tr.begin(parent, "bench.client")
	defer tr.end(cs)
	var resp serve.SolveResponse
	if err := json.Unmarshal(ex.body, &resp); err != nil {
		oc.err = fmt.Errorf("decoding /solve response: %w", err)
		return oc, nil, nil, nil
	}
	oc.cached = resp.Cache != nil
	oc.hit = oc.cached && resp.Cache.Hit
	oc.iters = resp.Iterations
	oc.wrong, oc.err = checkAnswer(op.m, w.o.answer(idx, resp.X), b, resp.Converged, limit)
	oc.ok = oc.err == nil
	oc.latency = time.Since(start)
	return oc, &resp, body, b
}

// setupTrace replays the set-up's programming of each resident operator
// with spans, and programs the refine engines the traced replay leases.
func (w *solveHit) setupTrace(tr *opTrace) error {
	w.refine = serve.NewCache(serve.CacheConfig{PoolSize: serve.DefaultPoolSize, EngineParallelism: 1},
		core.ReducedSliceConfig(serve.DefaultRefineBits), serveSeed)
	for k := range w.ops {
		op := &w.ops[k]
		root := tr.begin(-1, "setup.operator")
		pp := tr.begin(root, "blocking.Preprocess")
		plan, err := blocking.Preprocess(op.m, blocking.DefaultSubstrate())
		tr.end(pp)
		if err != nil {
			return err
		}
		op.plan = plan
		ne := tr.begin(root, "accel.NewEngine")
		eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), serveSeed)
		tr.end(ne)
		if err != nil {
			return err
		}
		fk := tr.begin(root, "accel.Fork")
		eng.Fork()
		tr.end(fk)
		rm := tr.begin(root, "serve.Cache.Acquire.miss")
		lease, err := w.refine.Acquire(context.Background(), op.m)
		tr.end(rm)
		if err != nil {
			return err
		}
		lease.Release()
		tr.end(root)
	}
	return nil
}

func (w *solveHit) tracedOp(idx int64, tr *opTrace) outcome {
	k, refine := hitOp(idx)
	op := w.ops[k]
	root := tr.begin(-1, "op")
	defer tr.end(root)
	oc, resp, body, b := w.post(idx, k, refine, tr, root)
	if !oc.ok {
		return oc
	}
	fail := func(err error) outcome {
		oc.ok, oc.err, oc.traced = false, err, nil
		return oc
	}

	// The same request through in-process ServeHTTP.
	ip := tr.begin(root, "serve.ServeHTTP")
	ex := inProcess(w.h.srv, "POST", "/solve", body)
	tr.end(ip)
	var in serve.SolveResponse
	if !ok2xx(ex.status) {
		return fail(statusErr("in-process POST /solve", ex))
	}
	if err := json.Unmarshal(ex.body, &in); err != nil {
		return fail(fmt.Errorf("decoding in-process response: %w", err))
	}

	// The direct replay of the layers the handler calls.
	rp := tr.begin(root, "replay")
	defer tr.end(rp)
	m, parse, err := parseReplay(tr, rp, body)
	if err != nil {
		return fail(err)
	}
	cfg, cache := core.DefaultClusterConfig(), w.h.srv.Cache()
	if refine {
		cfg, cache = core.ReducedSliceConfig(serve.DefaultRefineBits), w.refine
	}
	fp := tr.begin(rp, "serve.Fingerprint")
	serve.Fingerprint(m, cfg, serveSeed)
	tr.end(fp)
	ac := tr.begin(rp, "serve.Cache.Acquire")
	lease, err := cache.Acquire(context.Background(), m)
	tr.end(ac)
	if err != nil {
		return fail(err)
	}
	tol := hitTol
	if refine {
		tol = refineTol
	}
	r, err := replaySolve(tr, rp, lease.Engine, m, b, refine, tol, 0)
	rl := tr.begin(rp, "serve.Lease.Release")
	lease.Release()
	tr.end(rl)
	if err != nil {
		return fail(err)
	}
	en := tr.begin(rp, "serve.encode")
	encErr := json.NewEncoder(io.Discard).Encode(&in)
	tr.end(en)
	if encErr != nil {
		return fail(encErr)
	}

	loopMS, _ := tr.childMS(root, "http.loopback")
	clientMS, _ := tr.childMS(root, "bench.client")
	ti := &tracedInfo{
		refine: refine, plan: op.plan, clusters: lease.Engine.Clusters(),
		replayMismatch: r.iters != oc.iters, ledger: map[string]ledgerCell{},
	}
	solveLedger(tr, ti, r)
	if !refine {
		ti.model = model(op.m, op.plan, r.iters)
	}
	// Transport: each side's time outside the handler's own total, the
	// in-process side subtracted from the loopback side. Handler self:
	// ServeHTTP minus the replayed parse and fingerprint and the
	// handler's own program and solve timings (the same execution, so
	// host-speed swings between two solves stay out of the difference).
	ti.ledger["serve.transport"] = ledgerCell{ms: (loopMS - resp.Timings.Total) - (tr.ms(ip) - in.Timings.Total), calls: 1}
	ti.ledger["serve.handler_self"] = ledgerCell{ms: tr.ms(ip) - tr.ms(parse) - tr.ms(fp) - in.Timings.Program - in.Timings.Solve, calls: 1}
	ti.ledger["sparse.parse"] = ledgerCell{ms: tr.ms(parse), calls: 1}
	ti.ledger["serve.fingerprint"] = ledgerCell{ms: tr.ms(fp), calls: 1}
	ti.ledger["serve.acquire"] = ledgerCell{ms: tr.ms(ac), calls: 1}
	ti.ledger["bench.client"] = ledgerCell{ms: clientMS, calls: 1}
	oc.traced = ti
	return oc
}
