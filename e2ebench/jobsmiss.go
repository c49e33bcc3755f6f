package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/matgen"
	"memsci/internal/serve"
	"memsci/internal/sparse"
)

// jobs-miss: two clients each submit POST /v1/jobs, wait on the job's
// SSE stream for done, then GET the result. Every job carries an operator
// the server has not seen, and the engine cache is bounded so eviction
// runs in steady state: this is the engine cache's write path
// (preprocess, program, packed mirror, evict) plus the job store, queue
// and event stream.
const (
	jobRows = 256
	jobTol  = 1e-6
	// jobCacheClusters bounds the engine cache (memserve -cache-clusters):
	// each job's operator is one cluster, so from the fifth job on every
	// miss evicts.
	jobCacheClusters = 4
	jobClients       = 2
	jobWarmups       = 3 // per client
)

// jobSpec is operation idx's operator: a well-conditioned banded stand-in
// with a narrow exponent spread, new for every index.
func jobSpec(seed, idx int64) matgen.Spec {
	return matgen.Spec{Name: "job", Rows: jobRows, NNZ: jobRows * 9, SPD: true, Class: matgen.Banded,
		Band: 16, ExpSpread: 2, Seed: splitmix(seed, idx), DiagMargin: 2}
}

// jobView is the GET /v1/jobs/{id} body with its result decoded.
type jobView struct {
	State    jobs.State           `json:"state"`
	Created  time.Time            `json:"created"`
	Finished time.Time            `json:"finished"`
	QueueMS  float64              `json:"queue_ms"`
	Error    string               `json:"error"`
	Result   *serve.SolveResponse `json:"result"`
	// events counts the SSE events the client read.
	events int
}

// serverMS is the server-side share of a job operation: the job's life
// from creation to finish, plus the parse before creation.
func (v *jobView) serverMS() float64 {
	return ms(v.Finished.Sub(v.Created)) + v.Result.Timings.Parse
}

type jobsMiss struct {
	o options
	h *harness
	// inproc is the traced run's second server, with the same
	// configuration, driven only through ServeHTTP: each operator is new
	// to both servers, so both sides of the transport difference miss.
	inproc *serve.Server
}

func setupJobsMiss(o options) (system, error) {
	h, err := startHarness(serveConfig(jobCacheClusters))
	if err != nil {
		return nil, err
	}
	w := &jobsMiss{o: o, h: h}
	// Both callers at once: starts the job workers and fills the bounded
	// cache, so eviction runs from the first measured job.
	if err := warmUp(jobClients, jobWarmups, w.op); err != nil {
		h.close()
		return nil, err
	}
	return w, nil
}

func (w *jobsMiss) close() {
	w.h.close()
	if w.inproc != nil {
		w.inproc.Close()
	}
}

func (w *jobsMiss) evictions() int64 { return w.h.srv.Cache().Stats().Evictions }

// request builds job idx's body from the seed.
func (w *jobsMiss) request(idx int64) (*sparse.CSR, []float64, []byte, error) {
	m := jobSpec(w.o.seed, idx).Generate()
	b := rhs(jobRows, splitmix(w.o.seed, ^idx))
	body, err := json.Marshal(&serve.SolveRequest{Matrix: matrixMarket(m), B: b, Method: "cg", Tol: jobTol})
	return m, b, body, err
}

func (w *jobsMiss) op(idx int64) outcome {
	m, b, body, err := w.request(idx)
	if err != nil {
		return failed(idx, err)
	}
	oc, _ := w.run(idx, m, b, body, nil, -1)
	return oc
}

// run submits the job over loopback, waits for done on its event stream,
// fetches the result and checks it.
func (w *jobsMiss) run(idx int64, m *sparse.CSR, b []float64, body []byte, tr *opTrace, parent int) (outcome, *jobView) {
	oc := outcome{idx: idx, job: true, reqBytes: len(body)}
	start := time.Now()
	sp := tr.begin(parent, "http.loopback")
	v, events, n, err := w.exchange(body)
	tr.end(sp)
	if err != nil {
		oc.err = err
		return oc, nil
	}
	oc.respBytes = n
	cs := tr.begin(parent, "bench.client")
	defer tr.end(cs)
	oc.queueMS = v.QueueMS
	if v.State != jobs.StateDone || v.Result == nil {
		oc.err = fmt.Errorf("job ended %s: %s", v.State, v.Error)
		return oc, nil
	}
	oc.cached = v.Result.Cache != nil
	oc.hit = oc.cached && v.Result.Cache.Hit
	oc.iters = v.Result.Iterations
	oc.wrong, oc.err = checkAnswer(m, w.o.answer(idx, v.Result.X), b, v.Result.Converged, 10*jobTol)
	oc.ok = oc.err == nil
	oc.latency = time.Since(start)
	v.events = events
	return oc, v
}

// exchange is one job over loopback: submit, stream to done, fetch.
func (w *jobsMiss) exchange(body []byte) (v *jobView, events, n int, err error) {
	sub, err := w.h.do("POST", "/v1/jobs", body)
	if err == nil && !ok2xx(sub.status) {
		err = statusErr("POST /v1/jobs", sub)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	var s serve.JobSubmitResponse
	if err := json.Unmarshal(sub.body, &s); err != nil {
		return nil, 0, 0, fmt.Errorf("decoding job submission: %w", err)
	}
	events, sse, err := w.h.events(s.EventsURL)
	if err != nil {
		return nil, 0, 0, err
	}
	got, err := w.h.do("GET", s.StatusURL, nil)
	if err == nil && !ok2xx(got.status) {
		err = statusErr("GET "+s.StatusURL, got)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	v = &jobView{}
	if err := json.Unmarshal(got.body, v); err != nil {
		return nil, 0, 0, fmt.Errorf("decoding job view: %w", err)
	}
	return v, events, len(sub.body) + sse + len(got.body), nil
}

// exchangeInProcess is the same job through ServeHTTP on the second
// server.
func (w *jobsMiss) exchangeInProcess(body []byte) (*jobView, error) {
	sub := inProcess(w.inproc, "POST", "/v1/jobs", body)
	if !ok2xx(sub.status) {
		return nil, statusErr("in-process POST /v1/jobs", sub)
	}
	var s serve.JobSubmitResponse
	if err := json.Unmarshal(sub.body, &s); err != nil {
		return nil, fmt.Errorf("decoding in-process submission: %w", err)
	}
	ev := inProcess(w.inproc, "GET", s.EventsURL, nil)
	if _, _, err := readEvents(bytes.NewReader(ev.body)); err != nil {
		return nil, fmt.Errorf("in-process event stream: %w", err)
	}
	got := inProcess(w.inproc, "GET", s.StatusURL, nil)
	if !ok2xx(got.status) {
		return nil, statusErr("in-process GET "+s.StatusURL, got)
	}
	v := &jobView{}
	if err := json.Unmarshal(got.body, v); err != nil {
		return nil, fmt.Errorf("decoding in-process job view: %w", err)
	}
	if v.State != jobs.StateDone || v.Result == nil {
		return nil, fmt.Errorf("in-process job ended %s: %s", v.State, v.Error)
	}
	return v, nil
}

func (w *jobsMiss) setupTrace(*opTrace) error {
	w.inproc = serve.New(serveConfig(jobCacheClusters))
	return warmUp(jobClients, jobWarmups, func(idx int64) outcome {
		_, _, body, err := w.request(idx)
		if err == nil {
			_, err = w.exchangeInProcess(body)
		}
		return outcome{idx: idx, ok: err == nil, err: err}
	})
}

func (w *jobsMiss) tracedOp(idx int64, tr *opTrace) outcome {
	m, b, body, err := w.request(idx)
	if err != nil {
		return failed(idx, err)
	}
	root := tr.begin(-1, "op")
	defer tr.end(root)
	oc, v := w.run(idx, m, b, body, tr, root)
	if !oc.ok {
		return oc
	}
	fail := func(err error) outcome {
		oc.ok, oc.err = false, err
		return oc
	}

	ip := tr.begin(root, "serve.ServeHTTP")
	in, err := w.exchangeInProcess(body)
	tr.end(ip)
	if err != nil {
		return fail(err)
	}

	// The direct replay of what the handler and the job worker call on a
	// miss: parse, fingerprint (at parse and again in Acquire),
	// preprocess, program, solve.
	rp := tr.begin(root, "replay")
	defer tr.end(rp)
	pm, parse, err := parseReplay(tr, rp, body)
	if err != nil {
		return fail(err)
	}
	fp := tr.begin(rp, "serve.Fingerprint")
	serve.Fingerprint(pm, core.DefaultClusterConfig(), serveSeed)
	tr.end(fp)
	pp := tr.begin(rp, "blocking.Preprocess")
	plan, err := blocking.Preprocess(pm, blocking.DefaultSubstrate())
	tr.end(pp)
	if err != nil {
		return fail(err)
	}
	ne := tr.begin(rp, "accel.NewEngine")
	eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), serveSeed)
	tr.end(ne)
	if err != nil {
		return fail(err)
	}
	eng.Parallelism = 1
	fk := tr.begin(rp, "accel.Fork")
	eng.Fork()
	tr.end(fk)
	r, err := replaySolve(tr, rp, eng, pm, b, false, jobTol, 0)
	if err != nil {
		return fail(err)
	}
	en := tr.begin(rp, "serve.encode")
	encErr := json.NewEncoder(io.Discard).Encode(in.Result)
	tr.end(en)
	if encErr != nil {
		return fail(encErr)
	}

	loopMS, _ := tr.childMS(root, "http.loopback")
	clientMS, _ := tr.childMS(root, "bench.client")
	ti := &tracedInfo{
		plan: plan, clusters: eng.Clusters(), events: v.events, model: model(m, plan, r.iters),
		replayMismatch: r.iters != oc.iters, ledger: map[string]ledgerCell{},
	}
	solveLedger(tr, ti, r)
	ti.ledger["serve.transport"] = ledgerCell{ms: (loopMS - v.serverMS()) - (tr.ms(ip) - in.serverMS()), calls: 1}
	ti.ledger["serve.handler_self"] = ledgerCell{
		ms:    tr.ms(ip) - tr.ms(parse) - tr.ms(fp) - in.Result.Timings.Program - in.Result.Timings.Solve - in.QueueMS,
		calls: 1,
	}
	ti.ledger["sparse.parse"] = ledgerCell{ms: tr.ms(parse), calls: 1}
	ti.ledger["serve.fingerprint"] = ledgerCell{ms: 2 * tr.ms(fp), calls: 2}
	ti.ledger["blocking.preprocess"] = ledgerCell{ms: tr.ms(pp), calls: 1}
	ti.ledger["accel.program"] = ledgerCell{ms: tr.ms(ne), calls: 1}
	ti.ledger["jobs.queue"] = ledgerCell{ms: v.QueueMS, calls: 1}
	ti.ledger["bench.client"] = ledgerCell{ms: clientMS, calls: 1}
	oc.traced = ti
	return oc
}
