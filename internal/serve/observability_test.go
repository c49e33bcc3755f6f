package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memsci/internal/obs"
)

// A panic recovered mid-solve must count a failure AND release the
// in-flight gauge — a leaked gauge reads as permanent saturation.
func TestSolvePanicAccounting(t *testing.T) {
	s := New(Config{})
	s.solveHook = func() { panic("synthetic crossbar fault") }
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(8))})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d want 500: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "synthetic crossbar fault") {
		t.Errorf("panic not surfaced in body: %s", raw)
	}
	if got := s.metrics.failures.Value(); got != 1 {
		t.Errorf("failures %d want 1", got)
	}
	if got := s.metrics.inFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge leaked: %d want 0", got)
	}
	if got := s.metrics.requests.Value(); got != 1 {
		t.Errorf("requests %d want 1", got)
	}
}

// sampleTotal sums a solve span's per-iteration hardware deltas; nil
// when no sample carries any.
func sampleTotal(sp *obs.Span) *obs.HWCounters {
	var total *obs.HWCounters
	for _, sm := range sp.Samples {
		if sm.HW != nil {
			if total == nil {
				total = &obs.HWCounters{}
			}
			total.Add(*sm.HW)
		}
	}
	return total
}

// fetchTraces decodes /debug/traces.
func fetchTraces(t *testing.T, ts *httptest.Server) []*obs.Span {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []*obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	return traces
}

// "trace": true puts one sample per iteration on the response's solve
// span, and their hardware deltas sum exactly to the response's
// end-of-solve Hardware window.
func TestSolveTraceResponse(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	req := SolveRequest{Matrix: mmText(t, poisson1D(40)), Method: "cg", Trace: true}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	solveSp := sr.Span.Find("solve")
	if solveSp == nil || solveSp.Samples == nil {
		t.Fatalf("no samples on the solve span: %s", raw)
	}
	if len(solveSp.Samples) != sr.Iterations {
		t.Fatalf("solve span has %d samples for %d iterations", len(solveSp.Samples), sr.Iterations)
	}
	if sr.RequestID == "" || sr.Span.Attrs["request_id"] != sr.RequestID {
		t.Errorf("request id %q, root span request_id %q", sr.RequestID, sr.Span.Attrs["request_id"])
	}
	if got := resp.Header.Get("X-Request-Id"); got != sr.RequestID {
		t.Errorf("X-Request-Id header %q vs body %q", got, sr.RequestID)
	}
	if sr.Hardware == nil {
		t.Fatal("accel response missing hardware window")
	}
	total := sampleTotal(solveSp)
	if total == nil {
		t.Fatal("samples carry no hardware deltas")
	}
	want := sr.Hardware.HWCounters()
	if *total != want {
		t.Errorf("sample hw sum %+v != hardware window %+v", *total, want)
	}
	if solveSp.HW == nil || *solveSp.HW != want {
		t.Errorf("solve span hw %+v != hardware window %+v", solveSp.HW, want)
	}
	// Residuals decrease to the final value; nanos are recorded.
	iters := solveSp.Samples
	if iters[len(iters)-1].Residual != sr.Residual {
		t.Errorf("final sample residual %g != response residual %g",
			iters[len(iters)-1].Residual, sr.Residual)
	}
	for i := range iters {
		if iters[i].Nanos < 0 {
			t.Errorf("iteration %d negative nanos", i)
		}
	}

	// Without "trace": true the response stays lean: a span tree with
	// no samples.
	_, raw = postSolve(t, ts, SolveRequest{Matrix: mmText(t, poisson1D(40)), Method: "cg"})
	if bytes.Contains(raw, []byte(`"samples"`)) || bytes.Contains(raw, []byte(`"trace"`)) {
		t.Errorf("untraced response carries per-iteration samples: %s", raw)
	}
	if sr := decodeSolve(t, raw); sr.Span.Find("solve").Attrs["iterations"] != fmt.Sprint(sr.Iterations) {
		t.Errorf("untraced solve span iterations %q want %d", sr.Span.Find("solve").Attrs["iterations"], sr.Iterations)
	}
}

// Every solve (traced or not, csr or accel) lands in the /debug/traces
// ring as its request's span tree, newest first, and the debug handler
// serves pprof.
func TestDebugTracesAndPprof(t *testing.T) {
	s := New(Config{TraceRingSize: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for _, req := range []SolveRequest{
		{Matrix: mmText(t, poisson1D(16)), Backend: "csr"},
		{Matrix: mmText(t, poisson1D(24))},
		{Matrix: mmText(t, poisson1D(20)), Trace: true},
	} {
		resp, raw := postSolve(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		ids = append(ids, decodeSolve(t, raw).RequestID)
	}

	traces := fetchTraces(t, ts)
	if len(traces) != 3 {
		t.Fatalf("%d traces want 3", len(traces))
	}
	for i, tr := range traces { // newest first
		if got, want := tr.Attrs["request_id"], ids[len(ids)-1-i]; got != want {
			t.Errorf("ring entry %d is request %s want %s", i, got, want)
		}
		if err := tr.Validate(); err != nil || tr.Phase != "request" || !tr.Context().Valid() {
			t.Errorf("ring entry %d: phase %q, invalid tree: %v", i, tr.Phase, err)
		}
	}
	traced, accel, csr := traces[0].Find("solve"), traces[1].Find("solve"), traces[2].Find("solve")
	if traced == nil || len(traced.Samples) == 0 || sampleTotal(traced) == nil || *sampleTotal(traced) != *traced.HW {
		t.Errorf("traced entry lacks samples summing to its hardware: %+v", traced)
	}
	if accel == nil || accel.HW == nil || accel.Samples != nil {
		t.Errorf("untraced accel entry wants hardware and no samples: %+v", accel)
	}
	if csr == nil || traces[2].HWTotal() != nil || csr.Samples != nil {
		t.Errorf("csr entry should have no hardware and no samples: %+v", csr)
	}

	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/traces", "/metrics"} {
		resp, err := dbg.Client().Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("debug %s status %d", path, resp.StatusCode)
		}
	}
}
