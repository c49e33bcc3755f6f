package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"memsci/internal/accel"
	"memsci/internal/sparse"
)

// mmText renders a CSR system as MatrixMarket coordinate text.
func mmText(t *testing.T, m *sparse.CSR) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m, ""); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// poisson1D builds the SPD 1D Laplacian tridiag(-1, 2, -1).
func poisson1D(n int) *sparse.CSR {
	m := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		m.Add(i, i, 2)
		if i > 0 {
			m.Add(i, i-1, -1)
		}
		if i < n-1 {
			m.Add(i, i+1, -1)
		}
	}
	return m.ToCSR()
}

func postSolve(t *testing.T, ts *httptest.Server, req SolveRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
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

func decodeSolve(t *testing.T, raw []byte) *SolveResponse {
	t.Helper()
	var sr SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return &sr
}

func TestServerSolveAccelEndToEnd(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	m := testMatrix(t, 192, 11)
	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if !sr.Converged || sr.Iterations == 0 {
		t.Fatalf("did not converge: %+v", sr)
	}
	if sr.Backend != "accel" || sr.Method != "cg" {
		t.Errorf("backend %q method %q", sr.Backend, sr.Method)
	}
	if sr.Cache == nil || sr.Cache.Hit {
		t.Errorf("first solve should report a cache miss, got %+v", sr.Cache)
	}
	if sr.Hardware == nil || sr.Hardware.Ops == 0 {
		t.Errorf("hardware stats missing for accel backend: %+v", sr.Hardware)
	}
	// True residual against the parsed operator.
	b := sparse.Ones(m.Rows())
	if rn := sparse.Norm2(sparse.Residual(m, sr.X, b)) / sparse.Norm2(b); rn > 1e-9 {
		t.Errorf("true residual %g", rn)
	}

	// The second identical request must hit the cache.
	resp, raw = postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr2 := decodeSolve(t, raw)
	if sr2.Cache == nil || !sr2.Cache.Hit {
		t.Errorf("second solve should report a cache hit, got %+v", sr2.Cache)
	}
	// Per-request hardware stats: the hit's window must not include the
	// first solve's work.
	if sr2.Hardware.Ops != sr.Hardware.Ops {
		t.Errorf("per-request stats leaked across solves: %d vs %d ops", sr2.Hardware.Ops, sr.Hardware.Ops)
	}
	// Bit-exactness across cached/uncached paths.
	for i := range sr.X {
		if sr.X[i] != sr2.X[i] {
			t.Fatalf("cached solve diverged at %d: %x vs %x", i, sr.X[i], sr2.X[i])
		}
	}
}

func TestServerSolveCSRBackendAndMethods(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	m := poisson1D(80)
	for _, method := range []string{"auto", "cg", "bicgstab", "bicg", "gmres"} {
		resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, m), Method: method, Backend: "csr", Tol: 1e-6})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, resp.StatusCode, raw)
		}
		sr := decodeSolve(t, raw)
		if !sr.Converged {
			t.Errorf("%s did not converge: %+v", method, sr)
		}
		if sr.Cache != nil || sr.Hardware != nil {
			t.Errorf("%s: csr backend reported accelerator state", method)
		}
	}
	// Jacobi-preconditioned paths.
	for _, method := range []string{"cg", "bicgstab"} {
		resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, m), Method: method, Backend: "csr", Jacobi: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jacobi %s: status %d: %s", method, resp.StatusCode, raw)
		}
		if sr := decodeSolve(t, raw); !sr.Converged {
			t.Errorf("jacobi %s did not converge", method)
		}
	}
}

func TestServerSolveValidation(t *testing.T) {
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 4096, MaxRows: 64}))
	defer ts.Close()

	m := poisson1D(8)
	mm := mmText(t, m)
	cases := []struct {
		name string
		req  SolveRequest
		code int
	}{
		{"bad matrix", SolveRequest{Matrix: "garbage"}, http.StatusBadRequest},
		{"unknown method", SolveRequest{Matrix: mm, Method: "sor"}, http.StatusBadRequest},
		{"unknown backend", SolveRequest{Matrix: mm, Backend: "quantum"}, http.StatusBadRequest},
		{"bicg on accel", SolveRequest{Matrix: mm, Method: "bicg"}, http.StatusBadRequest},
		{"jacobi gmres", SolveRequest{Matrix: mm, Method: "gmres", Jacobi: true}, http.StatusBadRequest},
		{"rhs length", SolveRequest{Matrix: mm, B: []float64{1, 2}}, http.StatusBadRequest},
		{"non-square", SolveRequest{Matrix: "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n"}, http.StatusBadRequest},
		{"too many rows", SolveRequest{Matrix: mmText(t, poisson1D(65))}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, raw := postSolve(t, ts, tc.req)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.code, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %s", tc.name, raw)
		}
	}

	// Oversized body → 413 from MaxBytesReader.
	big := SolveRequest{Matrix: mm, B: make([]float64, 4096)}
	body, _ := json.Marshal(big)
	if len(body) <= 4096 {
		t.Fatalf("test body too small (%d bytes) to trip the limit", len(body))
	}
	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d want 413", resp.StatusCode)
	}
}

// The body is read into one buffer sized from Content-Length: a body at
// the limit is accepted, one byte over is refused with 413, a chunked
// body of unknown length is read whole either way, and a declared length
// far past the limit allocates no more than the limit allows.
func TestSolveBodyLimit(t *testing.T) {
	body, _ := json.Marshal(SolveRequest{Matrix: mmText(t, poisson1D(8)), Backend: "csr"})
	limit := int64(len(body))
	over := append(bytes.Clone(body), ' ')
	s := New(Config{MaxBodyBytes: limit})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	tooBig := fmt.Sprintf(`{"error":"body exceeds %d bytes"}`, limit)
	for _, tc := range []struct {
		name string
		body io.Reader
		code int
	}{
		{"at the limit", bytes.NewReader(body), http.StatusOK},
		{"one byte over", bytes.NewReader(over), http.StatusRequestEntityTooLarge},
		// A reader of unknown length makes the client send it chunked.
		{"chunked at the limit", io.MultiReader(bytes.NewReader(body)), http.StatusOK},
		{"chunked one byte over", io.MultiReader(bytes.NewReader(over)), http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.code, raw)
		}
		if tc.code == http.StatusRequestEntityTooLarge && strings.TrimSpace(string(raw)) != tooBig {
			t.Errorf("%s: body %s want %s", tc.name, raw, tooBig)
		}
	}

	req := httptest.NewRequest("POST", "/solve", bytes.NewReader(over))
	req.ContentLength = 64 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared 64 MiB: status %d want 413 (%s)", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("declared 64 MiB against a %d-byte limit: request allocated %d bytes", limit, got)
	}
}

func TestServerSolveDeadline(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	// An unreachable tolerance forces the solve to run until the 5 ms
	// deadline: n=5000 CG at ~50k iterations takes far longer than that.
	m := poisson1D(5000)
	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Backend: "csr", Tol: 1e-300, TimeoutMS: 5}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504: %s", resp.StatusCode, raw[:min(len(raw), 200)])
	}
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, "deadline") {
		t.Errorf("error body %s", raw)
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// One solve, then the counters must show up in /metrics.
	m := poisson1D(40)
	if resp, raw := postSolve(t, ts, SolveRequest{Matrix: mmText(t, m)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, raw)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"memserve_requests_total 1",
		"memserve_solves_total 1",
		"memserve_cache_misses_total 1",
		"memserve_cache_programmings_total 1",
		"memserve_inflight_solves 0",
		"# TYPE memserve_solve_seconds histogram",
		`memserve_solve_seconds_bucket{le="+Inf"} 1`,
		"memserve_solve_seconds_count 1",
		"memserve_solve_iterations_count 1",
		"# TYPE memserve_residual_reduction histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsRefreshCounters: refresh work reported by engines surfaces
// on /metrics (registered at zero, accumulated via noteRefresh).
func TestMetricsRefreshCounters(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.metrics.noteRefresh(accel.RefreshStats{
		Refreshes: 2, CellsReprogrammed: 100, WriteEnergyJoules: 5e-9,
	})
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"memserve_refresh_total 2",
		"memserve_refresh_cells_total 100",
		"memserve_refresh_energy_nanojoules_total 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /solve status %d want 405", resp.StatusCode)
	}
}
