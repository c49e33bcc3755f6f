package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/sparse"
)

// answerHash condenses what a solve computed into one FNV-1a hash: the
// bit patterns of x, the iteration counts (outer and inner for refine),
// and the cumulative hardware counters. The per-call diagnostics
// ColumnSlicesUsed and MinSettleSlice are left out: a batch leaves them
// on whichever engine ran the last Apply, which depends on the worker
// count.
func answerHash(sr *SolveResponse) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(sr.X)))
	for _, x := range sr.X {
		word(math.Float64bits(x))
	}
	word(uint64(sr.Iterations))
	word(uint64(sr.Outer))
	word(uint64(sr.InnerIterations))
	if hw := sr.Hardware; hw != nil {
		counters, _ := json.Marshal(struct {
			Ops, VectorSlicesApplied, VectorSlicesTotal     int
			Conversions, ConversionsSkipped, ConversionBits uint64
			CrossbarActivations, SaturationClamps           uint64
			AN                                              any
		}{hw.Ops, hw.VectorSlicesApplied, hw.VectorSlicesTotal,
			hw.Conversions, hw.ConversionsSkipped, hw.ConversionBits,
			hw.CrossbarActivations, hw.SaturationClamps, hw.AN})
		h.Write(counters)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func jobResult(t *testing.T, ts *httptest.Server, id string) *SolveResponse {
	t.Helper()
	jp := pollJob(t, ts, id)
	if jp.State != jobs.StateDone {
		t.Fatalf("job %s state %q error %q", id, jp.State, jp.Error)
	}
	var sr SolveResponse
	if err := json.Unmarshal(jp.Result, &sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}

// TestExecutionPathGoldens pins every way a solve executes — sync
// direct on both backends, sync refine on both backends, a single
// job, a coalesced batch of two, and an async refine job — to hashes
// of its answer, iteration counts and hardware counters.
func TestExecutionPathGoldens(t *testing.T) {
	m := testMatrix(t, 192, 11)
	mm := mmText(t, m)
	b1, b2 := testVector(m.Rows(), 21), testVector(m.Rows(), 22)
	want := map[string]string{
		"sync accel cg":      "5325cb008f37ead5",
		"sync csr bicgstab":  "8b7935289dc83839",
		"sync csr gmres":     "6eda4556fafaa168",
		"sync accel refine":  "8c7a0fd13a79505e",
		"sync csr refine":    "9408b631d30ecbee",
		"job accel cg":       "80e01c86c2d965a7",
		"batch accel cg [0]": "de7e36e979637645",
		"batch accel cg [1]": "7aa3ddd93b9399d8",
		"job accel refine":   "6395b6e58318e6ae",
	}
	got := map[string]string{}

	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	for name, req := range map[string]SolveRequest{
		"sync accel cg":     {Matrix: mm, B: b1, Method: "cg", Tol: 1e-10},
		"sync csr bicgstab": {Matrix: mm, B: b1, Method: "bicgstab", Backend: "csr", Tol: 1e-10},
		"sync csr gmres":    {Matrix: mm, B: b1, Method: "gmres", Backend: "csr", Tol: 1e-10, Restart: 20},
		"sync accel refine": {Matrix: mm, B: b1, Method: "cg", Mode: "refine", Tol: 1e-10},
		"sync csr refine":   {Matrix: mm, B: b1, Method: "bicgstab", Mode: "refine", Backend: "csr", Tol: 1e-10},
	} {
		resp, raw := postSolve(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, raw)
		}
		got[name] = answerHash(decodeSolve(t, raw))
	}

	// One worker, wedged on a csr job while the two batch members queue,
	// so they coalesce when it frees.
	js := New(Config{MaxConcurrent: 1, QueueDepth: 8})
	defer js.Close()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	js.execHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	jts := httptest.NewServer(js)
	defer jts.Close()
	submitJob(t, jts, SolveRequest{Matrix: mmText(t, poisson1D(16)), Method: "cg", Backend: "csr"})
	<-entered
	ja := submitJob(t, jts, SolveRequest{Matrix: mm, B: b1, Method: "cg", Tol: 1e-10})
	jb := submitJob(t, jts, SolveRequest{Matrix: mm, B: b2, Method: "cg", Tol: 1e-10})
	close(release)
	for i, id := range []string{ja.ID, jb.ID} {
		sr := jobResult(t, jts, id)
		if sr.BatchSize != 2 {
			t.Fatalf("batch member %d ran with batch_size %d", i, sr.BatchSize)
		}
		got[fmt.Sprintf("batch accel cg [%d]", i)] = answerHash(sr)
	}
	single := submitJob(t, jts, SolveRequest{Matrix: mm, B: b2, Method: "cg", Tol: 1e-10})
	got["job accel cg"] = answerHash(jobResult(t, jts, single.ID))
	refine := submitJob(t, jts, SolveRequest{Matrix: mm, B: b2, Method: "cg", Mode: "refine", Tol: 1e-10})
	got["job accel refine"] = answerHash(jobResult(t, jts, refine.ID))

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: answer hash %s, want %s", name, got[name], w)
		}
	}
}

// leasedOut counts the engines leased from resident entries: zero once
// every entry's lease pool is full again.
func (c *Cache) leasedOut() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry)
		n += cap(ent.idle) - len(ent.idle) - len(ent.spare)
	}
	return n
}

// waitFor polls cond until it reports "" (the condition holds) or ten
// seconds pass.
func waitFor(t *testing.T, cond func() string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		msg := cond()
		if msg == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// atRest reports what a server still holds after a fault played out:
// leased engines, execution slots, sync solves waiting for a slot, and
// queued jobs must all be back at zero.
func atRest(s *Server) string {
	switch {
	case s.cache.leasedOut() != 0:
		return fmt.Sprintf("%d engines still leased", s.cache.leasedOut())
	case len(s.sem) != 0:
		return fmt.Sprintf("%d execution slots still held", len(s.sem))
	case s.syncWaiting.Load() != 0:
		return fmt.Sprintf("%d sync solves still waiting for a slot", s.syncWaiting.Load())
	case s.queue.Len() != 0:
		return fmt.Sprintf("%d jobs still queued", s.queue.Len())
	}
	return ""
}

// faultServer starts a server for one failure-injection case with hook
// as its execHook. When the case ends, the server must be at rest, and
// once it is shut down the process must be back to the goroutines it
// had before the case.
func faultServer(t *testing.T, cfg Config, hook func()) (*Server, *httptest.Server) {
	t.Helper()
	base := runtime.NumGoroutine()
	s := New(cfg)
	s.execHook = hook
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		waitFor(t, func() string { return atRest(s) })
		ts.Close()
		s.Close()
		waitGoroutines(t, base)
	})
	return s, ts
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	waitFor(t, func() string {
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			return fmt.Sprintf("%d goroutines, %d before the case:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		return ""
	})
}

// queueJobs admits n jobs for req straight into the store and queue,
// without starting the worker pool: a test hands the first to runQueued
// itself, which coalesces the rest into a batch when they are
// compatible.
func queueJobs(t *testing.T, s *Server, req SolveRequest, n int) []*queuedJob {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]*queuedJob, n)
	for i := range items {
		rec := httptest.NewRecorder()
		spec := s.parseSolveRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if spec == nil {
			t.Fatalf("parsing job: %d %s", rec.Code, rec.Body)
		}
		job, err := s.store.Create(spec.tenant)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = &queuedJob{job: job, id: job.ID, spec: spec, enqueued: time.Now()}
		s.jobsWG.Add(1)
		if i > 0 && !s.queue.Push(items[i]) {
			t.Fatal("queue full")
		}
	}
	return items
}

// endless is an accel CG solve that runs until its context ends: the
// tolerance is out of reach and the iteration cap out of sight.
func endless(t *testing.T) SolveRequest {
	return SolveRequest{Matrix: mmText(t, testMatrix(t, 192, 11)), Method: "cg", Tol: 1e-300, MaxIter: 1 << 30}
}

func wantState(t *testing.T, job *jobs.Job, state jobs.State, errPart string) {
	t.Helper()
	if v := job.View(); v.State != state || !strings.Contains(v.Error, errPart) {
		t.Errorf("job %s: state %q error %q, want %q with %q", job.ID, v.State, v.Error, state, errPart)
	}
}

// TestFailureSyncCancel: a client that goes away mid-solve ends the solve
// with an error status, and its lease and slot come back.
func TestFailureSyncCancel(t *testing.T) {
	s, ts := faultServer(t, Config{}, nil)
	body, err := json.Marshal(endless(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
		if err != nil {
			done <- err
			return
		}
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, func() string {
		if s.cache.leasedOut() != 1 {
			return "solve never leased its engine"
		}
		return ""
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client error %v, want context.Canceled", err)
	}
	waitFor(t, func() string {
		if s.metrics.failures.Value() != 1 || s.metrics.inFlight.Value() != 0 {
			return fmt.Sprintf("failures %d in-flight %d, want 1 and 0", s.metrics.failures.Value(), s.metrics.inFlight.Value())
		}
		return ""
	})
}

// TestFailureTimeouts: a deadline that expires mid-solve ends a sync
// solve with 504, a job with state timeout, and a batch with every
// member timed out, each counted once.
func TestFailureTimeouts(t *testing.T) {
	s, ts := faultServer(t, Config{}, nil)
	req := endless(t)
	req.TimeoutMS = 50
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(raw), "deadline") {
		t.Fatalf("sync status %d: %s", resp.StatusCode, raw)
	}
	batch := queueJobs(t, s, req, 2)
	s.runQueued(context.Background(), batch[0])
	for _, it := range batch {
		wantState(t, it.job, jobs.StateTimeout, "deadline")
	}
	jr := submitJob(t, ts, req)
	if jp := pollJob(t, ts, jr.ID); jp.State != jobs.StateTimeout {
		t.Errorf("job state %q error %q, want timeout", jp.State, jp.Error)
	}
	if got := s.metrics.timeouts.Value(); got != 4 {
		t.Errorf("timeouts %d, want 4", got)
	}
	if got := s.metrics.batches.Value(); got != 1 {
		t.Errorf("batches %d, want 1", got)
	}
}

// TestFailureLeaseWaitTimeout: with the entry's only engine leased out, a
// sync solve waiting for it ends in 504 and a batch waiting for it times
// out every member; both count as timeouts.
func TestFailureLeaseWaitTimeout(t *testing.T) {
	s, ts := faultServer(t, Config{Cache: CacheConfig{PoolSize: 1}}, nil)
	m := testMatrix(t, 192, 11)
	held, err := s.Cache().Acquire(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10, TimeoutMS: 50}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(raw), "waiting for engine lease") {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	batch := queueJobs(t, s, req, 2)
	s.runQueued(context.Background(), batch[0])
	for _, it := range batch {
		wantState(t, it.job, jobs.StateTimeout, "waiting for engine lease")
	}
	if got := s.metrics.timeouts.Value(); got != 3 {
		t.Errorf("timeouts %d, want 3", got)
	}
	held.Release()
	req.TimeoutMS = 0
	if resp, raw := postSolve(t, ts, req); resp.StatusCode != http.StatusOK {
		t.Errorf("after the release: status %d: %s", resp.StatusCode, raw)
	}
}

// TestFailureAcquireError: an engine that cannot be programmed — here
// every refine engine, from an invalid refine configuration — fails the
// sync solve with 422 and the job with state failed, while direct
// solves keep working.
func TestFailureAcquireError(t *testing.T) {
	bad := core.ReducedSliceConfig(DefaultRefineBits)
	bad.Device.BitsPerCell = 9
	s, ts := faultServer(t, Config{RefineCluster: bad}, nil)
	mm := mmText(t, testMatrix(t, 192, 11))
	refine := SolveRequest{Matrix: mm, Method: "cg", Mode: "refine"}
	resp, raw := postSolve(t, ts, refine)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "acquiring engine") {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	jr := submitJob(t, ts, refine)
	if jp := pollJob(t, ts, jr.ID); jp.State != jobs.StateFailed || !strings.Contains(jp.Error, "acquiring engine") {
		t.Errorf("job state %q error %q, want failed acquiring engine", jp.State, jp.Error)
	}
	if resp, raw := postSolve(t, ts, SolveRequest{Matrix: mm, Method: "cg"}); resp.StatusCode != http.StatusOK {
		t.Errorf("direct solve: status %d: %s", resp.StatusCode, raw)
	}
	if st := s.Cache().Stats(); st.Entries != 1 || st.Programmings != 1 {
		t.Errorf("cache %+v, want only the direct entry", st)
	}
}

// TestFailurePanics: a panic inside execution fails the sync solve with
// 500 and every job it ran — single or batched — with state failed,
// and the worker that recovered it keeps serving.
func TestFailurePanics(t *testing.T) {
	s, ts := faultServer(t, Config{MaxConcurrent: 1}, func() { panic("synthetic execution fault") })
	req := SolveRequest{Matrix: mmText(t, testMatrix(t, 192, 11)), Method: "cg", Tol: 1e-10}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(raw), "synthetic execution fault") {
		t.Fatalf("sync status %d: %s", resp.StatusCode, raw)
	}
	if s.metrics.inFlight.Value() != 0 {
		t.Errorf("in-flight gauge %d after the panic", s.metrics.inFlight.Value())
	}
	// Before any submission starts the worker pool, so nothing else
	// dequeues the batch's second member.
	batch := queueJobs(t, s, req, 2)
	s.runQueued(context.Background(), batch[0])
	for _, it := range batch {
		wantState(t, it.job, jobs.StateFailed, "internal: synthetic execution fault")
	}
	for i := 0; i < 2; i++ {
		jr := submitJob(t, ts, req)
		if jp := pollJob(t, ts, jr.ID); jp.State != jobs.StateFailed || !strings.Contains(jp.Error, "synthetic execution fault") {
			t.Errorf("job %d state %q error %q, want failed", i, jp.State, jp.Error)
		}
	}
}

// TestFailureCloseShedsQueued: Close with jobs still queued sheds each of
// them, cancels the running one, and returns once the worker exits.
func TestFailureCloseShedsQueued(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int32
	s, ts := faultServer(t, Config{MaxConcurrent: 1, QueueDepth: 8}, func() {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
	})
	req := endless(t)
	running := submitJob(t, ts, req)
	<-entered
	var queued []*JobSubmitResponse
	for i := 0; i < 3; i++ {
		queued = append(queued, submitJob(t, ts, req))
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, func() string {
		if s.store.Get(queued[2].ID).State() != jobs.StateShed {
			return "queued jobs never shed"
		}
		return ""
	})
	close(release)
	<-closed
	for _, jr := range queued {
		wantState(t, s.Jobs().Get(jr.ID), jobs.StateShed, "server shutting down")
	}
	wantState(t, s.Jobs().Get(running.ID), jobs.StateFailed, "context canceled")
	if got := s.metrics.sheds.Value(); got != 3 {
		t.Errorf("sheds %d, want 3", got)
	}
}

// TestFailureCloseCancelsRunningJob: Close cancels a job mid-solve; it
// ends failed with its lease returned.
func TestFailureCloseCancelsRunningJob(t *testing.T) {
	s, ts := faultServer(t, Config{}, nil)
	jr := submitJob(t, ts, endless(t))
	waitFor(t, func() string {
		if s.cache.leasedOut() != 1 {
			return "job never leased its engine"
		}
		return ""
	})
	s.Close()
	wantState(t, s.Jobs().Get(jr.ID), jobs.StateFailed, "context canceled")
}

// TestFailureOwnerDiesMidForward: the owning peer dies while a forwarded
// solve runs on it; the entry node falls back to solving locally and
// answers correctly.
func TestFailureOwnerDiesMidForward(t *testing.T) {
	// Cleanups run last-registered first: this check follows the
	// shutdown twoNodes registers.
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitGoroutines(t, base) })
	sa, sb, tsA, tsB, m := twoNodes(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls atomic.Int32
	sb.execHook = func() {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-release
		}
	}
	t.Cleanup(func() { waitFor(t, func() string { return atRest(sa) + atRest(sb) }) })

	type result struct {
		resp *http.Response
		raw  []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, raw := postSolve(t, tsA, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10})
		done <- result{resp, raw}
	}()
	<-entered
	tsB.Listener.Close()
	tsB.CloseClientConnections()
	close(release)

	r := <-done
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r.resp.StatusCode, r.raw)
	}
	sr := decodeSolve(t, r.raw)
	if !sr.Converged || sr.Node != "a" {
		t.Fatalf("fallback solve: converged=%v node=%q, want a local answer on a", sr.Converged, sr.Node)
	}
	b := sparse.Ones(m.Rows())
	if rn := sparse.Norm2(sparse.Residual(m, sr.X, b)) / sparse.Norm2(b); rn > 1e-9 {
		t.Errorf("true residual %g", rn)
	}
	if got := sa.metrics.forwardFallback.Value(); got != 1 {
		t.Errorf("forward fallbacks %d, want 1", got)
	}
}
