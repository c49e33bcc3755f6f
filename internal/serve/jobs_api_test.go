package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"memsci/internal/core"
	"memsci/internal/jobs"
	"memsci/internal/matgen"
	"memsci/internal/obs"
)

func contextWithTestTimeout(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 120*time.Second)
}

// jobPoll mirrors JobStatusResponse with the result kept raw so tests
// can decode it as a SolveResponse.
type jobPoll struct {
	ID     string          `json:"id"`
	State  jobs.State      `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
	Node   string          `json:"node"`
}

func postJob(t *testing.T, ts *httptest.Server, req SolveRequest, apiKey string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		hr.Header.Set(apiKeyHeader, apiKey)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func submitJob(t *testing.T, ts *httptest.Server, req SolveRequest) *JobSubmitResponse {
	t.Helper()
	resp, raw := postJob(t, ts, req, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var jr JobSubmitResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	if jr.ID == "" || jr.StatusURL == "" || jr.EventsURL == "" {
		t.Fatalf("incomplete submit response: %+v", jr)
	}
	return &jr
}

// pollJob polls the status URL until the job is terminal.
func pollJob(t *testing.T, ts *httptest.Server, id string) *jobPoll {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jp jobPoll
		err = json.NewDecoder(resp.Body).Decode(&jp)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jp.State.Terminal() {
			return &jp
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestJobSubmitPollAndSSE(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	m := testMatrix(t, 192, 11)
	jr := submitJob(t, ts, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10})

	jp := pollJob(t, ts, jr.ID)
	if jp.State != jobs.StateDone {
		t.Fatalf("state %q error %q, want done", jp.State, jp.Error)
	}
	var sr SolveResponse
	if err := json.Unmarshal(jp.Result, &sr); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if !sr.Converged || sr.Iterations == 0 {
		t.Fatalf("job solve did not converge: %+v", sr)
	}
	if sr.Backend != "accel" || sr.Hardware == nil {
		t.Errorf("accel job missing hardware stats: %+v", sr)
	}

	// The SSE stream replays the full event log for a finished job: at
	// least one iteration event, then exactly one done event.
	resp, err := ts.Client().Get(ts.URL + jr.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	stream := buf.String()
	iters := strings.Count(stream, "event: iteration\n")
	dones := strings.Count(stream, "event: done\n")
	if iters < 1 || dones != 1 {
		t.Errorf("SSE stream has %d iteration and %d done events:\n%s", iters, dones, stream)
	}
	if iters != sr.Iterations {
		t.Errorf("SSE replayed %d iteration events, solve took %d", iters, sr.Iterations)
	}
	if !strings.Contains(stream, `"state":"done"`) {
		t.Errorf("done event missing terminal state:\n%s", stream)
	}

	// Unknown job IDs are 404 on both endpoints.
	for _, path := range []string{"/v1/jobs/deadbeef00000000", "/v1/jobs/deadbeef00000000/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d want 404", path, resp.StatusCode)
		}
	}

	if text := fetchMetrics(t, ts); !strings.Contains(text, "memserve_jobs_submitted_total 1") ||
		!strings.Contains(text, "memserve_jobs_done 1") {
		t.Errorf("job metrics missing:\n%s", grepMetrics(text, "memserve_jobs"))
	}
}

// TestJobSolveTimeout: the -solve-timeout bound aborts a job mid-solve
// with the distinct timeout state and counter (satellite: solve-timeout
// plumbed through context into async jobs).
func TestJobSolveTimeout(t *testing.T) {
	s := New(Config{SolveTimeout: 5 * time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	m := poisson1D(5000)
	jr := submitJob(t, ts, SolveRequest{Matrix: mmText(t, m), Method: "cg", Backend: "csr", Tol: 1e-300})
	jp := pollJob(t, ts, jr.ID)
	if jp.State != jobs.StateTimeout {
		t.Fatalf("state %q error %q, want timeout", jp.State, jp.Error)
	}
	if !strings.Contains(jp.Error, "deadline") {
		t.Errorf("timeout error %q", jp.Error)
	}
	if text := fetchMetrics(t, ts); !strings.Contains(text, "memserve_solve_timeouts_total 1") {
		t.Errorf("timeout counter missing:\n%s", grepMetrics(text, "timeout"))
	}
}

// TestJobSaturationAndReadyz: with a single worker wedged, the bounded
// queue fills, /readyz flips to 503, and further submissions shed with
// 503 + Retry-After.
func TestJobSaturationAndReadyz(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer s.Close()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s.execHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	mm := mmText(t, poisson1D(16))
	blocker := submitJob(t, ts, SolveRequest{Matrix: mm, Method: "cg", Backend: "csr"})
	<-entered // the only worker is now wedged inside the solve

	queued := submitJob(t, ts, SolveRequest{Matrix: mm, Method: "cg", Backend: "csr", Tol: 1e-9})

	// Queue is at depth: readyz reports saturated.
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("saturated readyz status %d want 503", resp.StatusCode)
	}

	// The next submission is shed with 503 + Retry-After.
	shedResp, raw := postJob(t, ts, SolveRequest{Matrix: mm, Method: "cg", Backend: "csr"}, "")
	if shedResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status %d: %s", shedResp.StatusCode, raw)
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	close(release)
	for _, id := range []string{blocker.ID, queued.ID} {
		if jp := pollJob(t, ts, id); jp.State != jobs.StateDone {
			t.Errorf("job %s state %q error %q", id, jp.State, jp.Error)
		}
	}

	// Drained: readyz recovers.
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("recovered readyz status %d want 200", resp.StatusCode)
	}
	if text := fetchMetrics(t, ts); !strings.Contains(text, "memserve_load_sheds_total 1") {
		t.Errorf("shed counter missing:\n%s", grepMetrics(text, "shed"))
	}
}

// TestSyncSolveSheds: synchronous solves waiting for an execution slot
// count against the queue bound and shed past it.
func TestSyncSolveSheds(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	defer s.Close()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s.execHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	mm := mmText(t, poisson1D(16))
	codes := make(chan int, 2)
	go func() {
		resp, _ := postSolve(t, ts, SolveRequest{Matrix: mm, Backend: "csr"})
		codes <- resp.StatusCode
	}()
	<-entered // solve 1 holds the only slot

	go func() {
		resp, _ := postSolve(t, ts, SolveRequest{Matrix: mm, Backend: "csr"})
		codes <- resp.StatusCode
	}()
	// Wait until solve 2 is parked waiting for the slot.
	for start := time.Now(); s.syncWaiting.Load() != 1; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("second solve never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Solve 3 exceeds the wait bound: shed immediately.
	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mm, Backend: "csr"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d want 503: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("blocked solve %d finished with %d", i, code)
		}
	}
}

// TestTenantQuota: per-API-key token buckets deny with 429 + Retry-After
// and are keyed per tenant.
func TestTenantQuota(t *testing.T) {
	s := New(Config{TenantRate: 0.001, TenantBurst: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	mm := mmText(t, poisson1D(16))
	// Anonymous burst of 1: first passes, second denied.
	if resp, raw := postSolve(t, ts, SolveRequest{Matrix: mm, Backend: "csr"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve status %d: %s", resp.StatusCode, raw)
	}
	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mm, Backend: "csr"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second solve status %d want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota denial missing Retry-After")
	}
	// Job submissions share the same bucket.
	if resp, _ := postJob(t, ts, SolveRequest{Matrix: mm, Backend: "csr"}, ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("job submit status %d want 429", resp.StatusCode)
	}
	// A different API key has its own bucket.
	if resp, raw := postJob(t, ts, SolveRequest{Matrix: mm, Method: "cg", Backend: "csr"}, "tenant-two"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("fresh tenant status %d: %s", resp.StatusCode, raw)
	}
	if text := fetchMetrics(t, ts); !strings.Contains(text, "memserve_quota_denied_total 2") {
		t.Errorf("quota counter missing:\n%s", grepMetrics(text, "quota"))
	}
}

// TestJobBatching: compatible queued jobs coalesce into one multi-RHS
// CGBatch execution against a single leased engine.
func TestJobBatching(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, BatchMax: 8})
	defer s.Close()
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s.execHook = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A non-batchable blocker wedges the single worker so the two accel
	// CG jobs are both queued when it next polls the queue.
	blocker := submitJob(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(16)), Method: "cg", Backend: "csr"})
	<-entered

	m := testMatrix(t, 192, 11)
	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10}
	ja := submitJob(t, ts, req)
	jb := submitJob(t, ts, req)
	close(release)

	if jp := pollJob(t, ts, blocker.ID); jp.State != jobs.StateDone {
		t.Fatalf("blocker state %q error %q", jp.State, jp.Error)
	}
	ids := []string{ja.ID, jb.ID}
	var results []*SolveResponse
	for _, id := range ids {
		jp := pollJob(t, ts, id)
		if jp.State != jobs.StateDone {
			t.Fatalf("job %s state %q error %q", id, jp.State, jp.Error)
		}
		var sr SolveResponse
		if err := json.Unmarshal(jp.Result, &sr); err != nil {
			t.Fatal(err)
		}
		results = append(results, &sr)
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces []*obs.Span
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	traced := map[string]bool{}
	for _, tr := range traces {
		traced[tr.Attrs["job"]] = true
	}
	for i, sr := range results {
		if !sr.Converged {
			t.Errorf("batched job %d did not converge: %+v", i, sr)
		}
		if sr.RequestID != ids[i] {
			t.Errorf("batched job %d request_id %q, want its job ID %s", i, sr.RequestID, ids[i])
		}
		if !traced[ids[i]] {
			t.Errorf("batched job %d (%s) missing from /debug/traces", i, ids[i])
		}
		if sr.BatchSize != 2 {
			t.Errorf("batched job %d batch_size %d want 2", i, sr.BatchSize)
		}
		if sr.Hardware == nil || sr.Hardware.Ops == 0 {
			t.Errorf("batched job %d missing the batch hardware window", i)
		}
	}
	// Identical RHS in one lockstep batch: bit-identical solutions.
	for i := range results[0].X {
		if results[0].X[i] != results[1].X[i] {
			t.Fatalf("batch members diverged at %d: %x vs %x", i, results[0].X[i], results[1].X[i])
		}
	}
	text := fetchMetrics(t, ts)
	for _, want := range []string{"memserve_batches_total 1", "memserve_batched_jobs_total 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, grepMetrics(text, "batch"))
		}
	}
}

// TestDrainLifecycle: StartDrain flips /readyz, refuses new jobs, lets
// queued work finish, and DrainJobs returns once everything is terminal.
func TestDrainLifecycle(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	mm := mmText(t, poisson1D(32))
	jr := submitJob(t, ts, SolveRequest{Matrix: mm, Method: "cg", Backend: "csr"})
	s.StartDrain()

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body.String(), "draining") {
		t.Errorf("draining readyz: status %d body %s", resp.StatusCode, body.String())
	}
	if resp, raw := postJob(t, ts, SolveRequest{Matrix: mm, Backend: "csr"}, ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d: %s", resp.StatusCode, raw)
	}

	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	if err := s.DrainJobs(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.Jobs().Get(jr.ID).State(); st != jobs.StateDone {
		t.Errorf("drained job state %q want done", st)
	}
}

// grepMetrics filters a metrics dump to lines containing substr, keeping
// failure output readable.
func grepMetrics(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestFinishedResponseRendersSameJSON: the form a done job keeps its
// result in renders byte for byte the JSON of the response it was
// built from, span tree included, and without a span.
func TestFinishedResponseRendersSameJSON(t *testing.T) {
	root := obs.NewSpan("n1", "job")
	root.SetAttr("job", "abc")
	sp := root.StartChild("solve")
	sp.SetHW(obs.HWCounters{Slices: 9, ADCConversions: 1234})
	sp.End()
	root.End()
	st := core.ComputeStats{Ops: 3, Conversions: 99, ColumnSlicesUsed: []int{5, 6}}
	for _, span := range []*obs.Span{root, nil} {
		resp := &SolveResponse{X: []float64{1.5, -2, 1e-300}, Iterations: 31, Converged: true, Residual: 3e-7,
			Method: "cg", Backend: "accel", Rows: 3, NNZ: 7, Cache: &CacheInfo{Hit: true, Key: "k"},
			Hardware: &st, Timings: Timings{Parse: 1, Solve: 2, Total: 3}, Node: "n1", BatchSize: 2, Span: span}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		done := &finishedResponse{SolveResponse: resp, Span: resp.Span.Freeze()}
		resp.Span = nil
		got, err := json.Marshal(done)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("finished response renders\n%s\nwant\n%s", got, want)
		}
	}
}

// TestFinishedJobRetainedBytes measures what a finished 256-row job
// keeps resident for its TTL — solution, event log, span tree, response
// and job record — as the growth of the live heap after GC between 100
// and 300 finished jobs on the end-to-end benchmark's jobs-miss operator
// shape, and holds it to 4 KB per job: the 2 KB solution plus a trimmed
// event log, a frozen span tree, the response and the job record (about
// 3.3 KB in all on a 64-bit host).
func TestFinishedJobRetainedBytes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	m := matgen.Spec{Name: "retained", Rows: 256, NNZ: 256 * 9, SPD: true, Class: matgen.Banded,
		Band: 16, ExpSpread: 2, Seed: 7, DiagMargin: 2}.Generate()
	body, err := json.Marshal(SolveRequest{Matrix: mmText(t, m), B: testVector(256, 8), Method: "cg", Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTestTimeout(t)
	defer cancel()
	run := func(n int) {
		for n > 0 {
			batch := min(n, DefaultQueueDepth/2)
			for i := 0; i < batch; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
				if rec.Code != http.StatusAccepted {
					t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
				}
			}
			if err := s.DrainJobs(ctx); err != nil {
				t.Fatal(err)
			}
			n -= batch
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle frees pooled compressors too
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(100)
	before := live()
	run(200)
	after := live()
	if c := s.Jobs().Counts(); c[jobs.StateDone] != 300 {
		t.Fatalf("resident jobs %v, want 300 done", c)
	}
	per := (float64(after) - float64(before)) / 200
	t.Logf("retained per finished job: %.0f bytes", per)
	if per > 4096 {
		t.Fatalf("a finished 256-row job retains %.0f bytes, want at most 4096", per)
	}
}
