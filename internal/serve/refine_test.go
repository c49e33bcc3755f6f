package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memsci/internal/obs"
	"memsci/internal/sparse"
)

// countPhase walks a span tree counting spans with the given phase.
func countPhase(sp *obs.Span, phase string) int {
	if sp == nil {
		return 0
	}
	n := 0
	if sp.Phase == phase {
		n++
	}
	for _, c := range sp.Children {
		n += countPhase(c, phase)
	}
	return n
}

func TestServerRefineModeAccel(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	m := testMatrix(t, 192, 11)
	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Mode: "refine", Tol: 1e-10, Trace: true}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if !sr.Converged {
		t.Fatalf("refine solve did not converge: %+v", sr)
	}
	if sr.Mode != "refine" {
		t.Errorf("mode %q, want refine", sr.Mode)
	}
	if sr.Outer < 1 || sr.InnerIterations < sr.Outer {
		t.Errorf("outer %d inner %d: missing decomposition", sr.Outer, sr.InnerIterations)
	}
	if sr.Iterations != sr.InnerIterations {
		t.Errorf("Iterations %d != InnerIterations %d", sr.Iterations, sr.InnerIterations)
	}
	if sr.Backend != "accel" {
		t.Errorf("backend %q", sr.Backend)
	}
	if sr.Cache == nil || sr.Cache.Hit {
		t.Errorf("first refine solve should miss its cache entry: %+v", sr.Cache)
	}
	// The true residual is checked against the EXACT operator — the
	// fp64 outer loop's whole job.
	b := sparse.Ones(m.Rows())
	rn := sparse.Norm2(sparse.Residual(m, sr.X, b)) / sparse.Norm2(b)
	if rn > 1e-10 {
		t.Errorf("true residual %g > 1e-10", rn)
	}
	// One sweep span per outer sweep under the solve span.
	if got := countPhase(sr.Span, "sweep"); got != sr.Outer {
		t.Errorf("%d sweep spans for %d outer sweeps", got, sr.Outer)
	}
	if sr.Hardware == nil || sr.Hardware.Conversions == 0 {
		t.Errorf("hardware window missing: %+v", sr.Hardware)
	}

	// The identical request hits the refine entry, not a direct one.
	resp2, raw2 := postSolve(t, ts, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, raw2)
	}
	sr2 := decodeSolve(t, raw2)
	if sr2.Cache == nil || !sr2.Cache.Hit {
		t.Errorf("repeat refine solve should hit the refine entry: %+v", sr2.Cache)
	}

	// A direct solve of the same matrix must not collide with the
	// refine entry (different cluster config, different key).
	dreq := SolveRequest{Matrix: mmText(t, m), Method: "cg", Tol: 1e-10}
	_, draw := postSolve(t, ts, dreq)
	dsr := decodeSolve(t, draw)
	if dsr.Cache == nil || dsr.Cache.Hit {
		t.Errorf("direct solve after refine hit a stale cache entry: %+v", dsr.Cache)
	}
	if dsr.Mode != "" || dsr.Outer != 0 {
		t.Errorf("direct solve leaked refine fields: %+v", dsr)
	}
}

func TestServerRefineModeCSR(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	m := testMatrix(t, 192, 12)
	req := SolveRequest{Matrix: mmText(t, m), Method: "cg", Mode: "refine", Backend: "csr", Tol: 1e-8}
	resp, raw := postSolve(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	sr := decodeSolve(t, raw)
	if !sr.Converged || sr.Mode != "refine" || sr.Backend != "csr" {
		t.Fatalf("csr refine: %+v", sr)
	}
	if sr.Hardware != nil {
		t.Errorf("csr backend reported hardware stats: %+v", sr.Hardware)
	}
	b := sparse.Ones(m.Rows())
	rn := sparse.Norm2(sparse.Residual(m, sr.X, b)) / sparse.Norm2(b)
	if rn > 1e-8 {
		t.Errorf("true residual %g > 1e-8", rn)
	}
}

func TestServerRefineModeValidation(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	mm := mmText(t, testMatrix(t, 64, 13))
	cases := []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"unknown mode", SolveRequest{Matrix: mm, Mode: "turbo"}, "unknown mode"},
		{"gmres inner", SolveRequest{Matrix: mm, Mode: "refine", Method: "gmres"}, "refine mode supports"},
		{"jacobi refine", SolveRequest{Matrix: mm, Mode: "refine", Method: "cg", Jacobi: true}, "jacobi"},
	}
	for _, c := range cases {
		resp, raw := postSolve(t, ts, c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if !strings.Contains(string(raw), c.want) {
			t.Errorf("%s: body %q missing %q", c.name, raw, c.want)
		}
	}

	// "direct" is accepted as an explicit alias for the default mode.
	resp, raw := postSolve(t, ts, SolveRequest{Matrix: mm, Mode: "direct", Method: "cg"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("explicit direct mode rejected: %d %s", resp.StatusCode, raw)
	}
	if sr := decodeSolve(t, raw); sr.Mode != "" {
		t.Errorf("direct mode echoed as %q", sr.Mode)
	}
}

// Refine engines live in the server's one engine cache: a refine solve
// shows in the memserve_cache_* series, a direct solve of the same
// matrix is a second miss because its key differs, and both count
// against one cluster budget, so a refine engine can evict a direct one.
func TestRefineEnginesShareTheCache(t *testing.T) {
	mm := mmText(t, testMatrix(t, 192, 11))
	direct := SolveRequest{Matrix: mm, Method: "cg", Tol: 1e-10}
	refine := SolveRequest{Matrix: mm, Method: "cg", Mode: "refine", Tol: 1e-10}
	solve := func(ts *httptest.Server, req SolveRequest) *SolveResponse {
		t.Helper()
		resp, raw := postSolve(t, ts, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return decodeSolve(t, raw)
	}
	wantMetrics := func(ts *httptest.Server, lines ...string) {
		t.Helper()
		text := fetchMetrics(t, ts)
		for _, line := range lines {
			if !strings.Contains(text, line+"\n") {
				t.Errorf("metrics lack %q:\n%s", line, grepMetrics(text, "memserve_cache_"))
			}
		}
	}

	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	solve(ts, refine)
	wantMetrics(ts, "memserve_cache_misses_total 1", "memserve_cache_programmings_total 1", "memserve_cache_entries 1")
	refineWeight := s.Cache().Stats().Clusters
	if sr := solve(ts, direct); sr.Cache == nil || sr.Cache.Hit {
		t.Errorf("direct solve after refine: cache %+v, want a miss", sr.Cache)
	}
	wantMetrics(ts, "memserve_cache_misses_total 2", "memserve_cache_programmings_total 2", "memserve_cache_entries 2")

	// A budget of exactly the direct entry's weight.
	bs := New(Config{Cache: CacheConfig{MaxClusters: s.Cache().Stats().Clusters - refineWeight}})
	bts := httptest.NewServer(bs)
	defer bts.Close()
	solve(bts, direct)
	solve(bts, refine)
	wantMetrics(bts, "memserve_cache_evictions_total 1", "memserve_cache_entries 1")
	if sr := solve(bts, direct); sr.Cache == nil || sr.Cache.Hit {
		t.Errorf("direct solve after the refine eviction: cache %+v, want a miss", sr.Cache)
	}
}
