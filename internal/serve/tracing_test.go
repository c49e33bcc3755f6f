package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"memsci/internal/cluster"
	"memsci/internal/jobs"
	"memsci/internal/obs"
)

// A local accel solve returns a span tree covering the request phases,
// with the solve span carrying exactly the hardware window the response
// reports — the cost attribution and the span attribution must agree.
func TestSolveResponseSpanTree(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	m := testMatrix(t, 192, 1)
	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if sr.Span == nil {
		t.Fatal("response carries no span tree")
	}
	if err := sr.Span.Validate(); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	if sr.Span.Phase != "request" {
		t.Errorf("root phase %q want request", sr.Span.Phase)
	}
	for _, phase := range []string{"parse", "throttle", "queue", "program", "solve"} {
		sp := sr.Span.Find(phase)
		if sp == nil {
			t.Errorf("missing %q span", phase)
			continue
		}
		if sp.Nanos <= 0 {
			t.Errorf("%q span never ended", phase)
		}
	}
	solveSp := sr.Span.Find("solve")
	if solveSp.HW == nil {
		t.Fatal("solve span carries no hardware delta")
	}
	if sr.Hardware == nil {
		t.Fatal("response carries no hardware stats")
	}
	if want := sr.Hardware.HWCounters(); *solveSp.HW != want {
		t.Errorf("solve span HW %+v != response hardware %+v", *solveSp.HW, want)
	}
	if got := sr.Span.Find("program").Attrs["cache_hit"]; got != "false" {
		t.Errorf("program span cache_hit %q want false (first solve)", got)
	}
	if sr.Span.Attrs["request_id"] != sr.RequestID {
		t.Errorf("root span request_id %q != response %q", sr.Span.Attrs["request_id"], sr.RequestID)
	}

	// The latency histograms picked up the trace ID as an exemplar.
	if text := fetchMetrics(t, ts); !strings.Contains(text, `# {trace_id="`+sr.Span.TraceID+`"}`) {
		t.Errorf("metrics missing exemplar for trace %s:\n%s",
			sr.Span.TraceID, grepMetrics(text, "memserve_solve_seconds_bucket"))
	}
}

// DisableTracing removes spans and exemplars entirely — the response has
// no span key at all, not an empty one.
func TestDisableTracingOmitsSpan(t *testing.T) {
	s := New(Config{DisableTracing: true})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(16)), Backend: "csr"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if sr := decodeSolve(t, raw); sr.Span != nil {
		t.Fatalf("tracing disabled but response has span: %+v", sr.Span)
	}
	if bytes.Contains(raw, []byte(`"span"`)) {
		t.Errorf("raw response mentions span: %s", raw)
	}
	if text := fetchMetrics(t, ts); strings.Contains(text, "# {trace_id=") {
		t.Error("tracing disabled but metrics carry exemplars")
	}
	if traces := fetchTraces(t, ts); len(traces) != 0 {
		t.Fatalf("tracing disabled but the ring holds %d untraced trees", len(traces))
	}

	// A request that asks for its trace still gets its own tree, with
	// its samples on the solve span, and the ring keeps it.
	resp, raw = postSolve(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(16)), Backend: "csr", Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if sr.Span == nil || sr.Span.Validate() != nil || sr.Span.Attrs["request_id"] != sr.RequestID {
		t.Fatalf("traced request under DisableTracing got no valid tree: %s", raw)
	}
	if sp := sr.Span.Find("solve"); sp == nil || len(sp.Samples) != sr.Iterations || sp.HW != nil {
		t.Errorf("traced csr solve span wants %d samples and no hardware: %+v", sr.Iterations, sp)
	}
	if traces := fetchTraces(t, ts); len(traces) != 1 || traces[0].TraceID != sr.Span.TraceID {
		t.Errorf("ring holds %d trees, want only the traced request's", len(traces))
	}
}

// exemplarTraceID matches a solve-latency bucket's trace-ID exemplar.
var exemplarTraceID = regexp.MustCompile(`memserve_solve_seconds_bucket\{[^}]*\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)

// The exemplar on a solve-latency bucket names a /debug/traces entry:
// an operator following it finds the request's span tree with its
// request, program and solve phases.
func TestExemplarNamesRingEntry(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	if resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, testMatrix(t, 192, 1)), Method: "cg", Tol: 1e-10}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	text := fetchMetrics(t, ts)
	m := exemplarTraceID.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no solve-latency exemplar:\n%s", grepMetrics(text, "memserve_solve_seconds_bucket"))
	}
	var entry *obs.Span
	for _, tr := range fetchTraces(t, ts) {
		if tr.TraceID == m[1] {
			entry = tr
		}
	}
	if entry == nil {
		t.Fatalf("exemplar trace %s names no /debug/traces entry", m[1])
	}
	if entry.Phase != "request" || entry.Find("program") == nil || entry.Find("solve") == nil {
		t.Errorf("entry for trace %s lacks request, program or solve phase: %+v", m[1], entry)
	}
}

// The entry node's ring keeps a forwarded solve's tree with the owner's
// subtree grafted in, so /debug/traces on the node the client talked to
// shows where the owner spent the solve.
func TestForwardedSolveRingEntry(t *testing.T) {
	_, _, tsA, _, m := twoNodes(t)

	resp, raw := postSolve(t, tsA, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10, Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	traces := fetchTraces(t, tsA)
	if len(traces) != 1 || traces[0].TraceID != sr.Span.TraceID {
		t.Fatalf("entry node ring holds %d trees, want the forwarded request's", len(traces))
	}
	if err := traces[0].Validate(); err != nil {
		t.Fatalf("ring entry invalid: %v", err)
	}
	solveSp := traces[0].Find("solve")
	if solveSp == nil || solveSp.Node != "b" || solveSp.HW == nil {
		t.Fatalf("entry node's ring entry lacks the owner's solve span: %+v", solveSp)
	}
	if len(solveSp.Samples) != sr.Iterations || *sampleTotal(solveSp) != *solveSp.HW {
		t.Errorf("owner's samples lost over the hop: %d samples for %d iterations", len(solveSp.Samples), sr.Iterations)
	}
}

// A forwarded solve must come back as ONE trace: the entry node's
// request/forward spans and the owner's request/program/solve spans all
// under a single trace ID, with both node IDs in the tree, and the
// entry node's request ID adopted across the hop.
func TestForwardedSolveSingleTrace(t *testing.T) {
	_, _, tsA, _, m := twoNodes(t)

	resp, raw := postSolve(t, tsA, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if sr.Span == nil {
		t.Fatal("forwarded response carries no span tree")
	}
	if err := sr.Span.Validate(); err != nil {
		t.Fatalf("grafted tree invalid: %v", err)
	}
	if sr.Span.Node != "a" {
		t.Errorf("root span node %q want entry node a", sr.Span.Node)
	}

	traceIDs := map[string]bool{}
	nodes := map[string]bool{}
	sr.Span.Walk(func(sp *obs.Span) {
		traceIDs[sp.TraceID] = true
		nodes[sp.Node] = true
	})
	if len(traceIDs) != 1 {
		t.Errorf("forwarded solve produced %d trace IDs, want 1: %v", len(traceIDs), traceIDs)
	}
	if !nodes["a"] || !nodes["b"] {
		t.Errorf("trace does not cover both nodes: %v", nodes)
	}

	fwdSp := sr.Span.Find("forward")
	if fwdSp == nil || fwdSp.Node != "a" {
		t.Fatalf("missing entry-node forward span: %+v", fwdSp)
	}
	solveSp := sr.Span.Find("solve")
	if solveSp == nil || solveSp.Node != "b" {
		t.Fatalf("solve span not on owner: %+v", solveSp)
	}
	if solveSp.HW == nil {
		t.Error("owner's solve span lost its hardware delta over the hop")
	}
	queueSp := sr.Span.Find("queue")
	if queueSp == nil || queueSp.Node != "b" {
		t.Errorf("queue span not on owner: %+v", queueSp)
	}

	// Satellite: the entry node's request ID crossed the hop — the owner
	// adopted it instead of minting a fresh one.
	if entry := resp.Header.Get("X-Request-Id"); entry == "" || sr.RequestID != entry {
		t.Errorf("owner request id %q != entry id %q", sr.RequestID, entry)
	}
}

// An async job's result span covers the queue wait plus execution under
// one trace, rooted at submission.
func TestJobResultSpanHasQueuePhase(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	jr := submitJob(t, ts, SolveRequest{Matrix: mmText(t, testMatrix(t, 192, 1)), Method: "cg", Tol: 1e-10})
	jp := pollJob(t, ts, jr.ID)
	if jp.State != jobs.StateDone {
		t.Fatalf("job state %q error %q", jp.State, jp.Error)
	}
	var sr SolveResponse
	if err := json.Unmarshal(jp.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Span == nil {
		t.Fatal("job result carries no span tree")
	}
	if err := sr.Span.Validate(); err != nil {
		t.Fatalf("job span tree invalid: %v", err)
	}
	if sr.Span.Phase != "job" {
		t.Errorf("root phase %q want job", sr.Span.Phase)
	}
	if sr.Span.Attrs["job"] != jr.ID {
		t.Errorf("root span job attr %q want %s", sr.Span.Attrs["job"], jr.ID)
	}
	for _, phase := range []string{"queue", "program", "solve"} {
		if sr.Span.Find(phase) == nil {
			t.Errorf("job trace missing %q span", phase)
		}
	}
	if sp := sr.Span.Find("solve"); sp != nil && sp.HW == nil {
		t.Error("job solve span carries no hardware delta")
	}
}

// /cluster/metrics merges every ring member's /metrics into one
// node-labeled view, and reports unreachable peers instead of failing.
func TestClusterMetricsFederation(t *testing.T) {
	_, _, tsA, _, m := twoNodes(t)

	// One forwarded solve so both nodes have non-trivial counters.
	if resp, raw := postSolve(t, tsA, SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}

	resp, err := tsA.Client().Get(tsA.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`memserve_federation_up{node="a"} 1`,
		`memserve_federation_up{node="b"} 1`,
		`memserve_forwarded_total{node="a"} 1`,
		`memserve_solves_total{node="b"} 1`,
		`memserve_build_info{node="a",`,
		`memserve_build_info{node="b",`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated metrics missing %q", want)
		}
	}
	if strings.Count(text, "# TYPE memserve_solves_total counter") != 1 {
		t.Error("family headers not deduplicated across nodes")
	}
}

// A dead peer degrades to memserve_federation_up 0; the live node's own
// series still render.
func TestClusterMetricsPeerDown(t *testing.T) {
	// Reserve a port for the dead peer by binding and closing it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	tsA := httptest.NewUnstartedServer(nil)
	sa := New(Config{NodeID: "a", Peers: []cluster.Peer{
		{ID: "a", URL: "http://" + tsA.Listener.Addr().String()},
		{ID: "dead", URL: deadURL},
	}})
	tsA.Config.Handler = sa
	tsA.Start()
	defer tsA.Close()
	defer sa.Close()

	resp, err := tsA.Client().Get(tsA.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `memserve_federation_up{node="a"} 1`) ||
		!strings.Contains(text, `memserve_federation_up{node="dead"} 0`) {
		t.Errorf("federation_up wrong:\n%s", grepMetrics(text, "federation"))
	}
	if !strings.Contains(text, `memserve_requests_total{node="a"}`) {
		t.Error("live node's series missing from degraded merge")
	}
}
