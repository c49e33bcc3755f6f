package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkSuite builds a synthetic suite with one result per (name, samples)
// pair, recomputing the summary statistics the way the runner does.
func mkSuite(preset string, results map[string][]float64) *Suite {
	s := &Suite{Schema: SchemaVersion, Preset: preset}
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	// Deterministic order for readable failures.
	for _, name := range sortedStrings(names) {
		samples := results[name]
		s.Results = append(s.Results, Result{
			Name: name, SamplesNs: samples,
			MedianNs: Median(samples), IQRNs: IQR(samples), InnerOps: 1,
		})
	}
	return s
}

func sortedStrings(v []string) []string {
	c := append([]string(nil), v...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c
}

func jitter(base float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + 0.01*float64(i%5)) // ±few % spread, no ties with distinct bases
	}
	return out
}

// TestCompareFlagsInjectedSlowdown is the acceptance test for the CI
// gate: a synthetic 3x slowdown must fail Gate with a nonzero result
// (cmd/membench compare translates that error into exit status 1).
func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := mkSuite("short", map[string][]float64{
		"engine/apply/serial": jitter(100, 7),
		"solve/csr/cg":        jitter(2000, 7),
	})
	head := mkSuite("short", map[string][]float64{
		"engine/apply/serial": jitter(300, 7), // injected 3x slowdown
		"solve/csr/cg":        jitter(2000, 7),
	})
	rep, err := Compare(base, head, CompareConfig{MaxRegress: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Name != "engine/apply/serial" {
		t.Fatalf("regressions = %+v, want exactly engine/apply/serial", regs)
	}
	if !regs[0].Significant || regs[0].Change < 1.5 {
		t.Fatalf("delta = %+v, want significant ~+200%%", regs[0])
	}
	if err := rep.Gate(); err == nil {
		t.Fatal("Gate() = nil, want error on injected slowdown")
	} else if !strings.Contains(err.Error(), "engine/apply/serial") {
		t.Fatalf("gate error %q does not name the regressed benchmark", err)
	}
}

func TestCompareNoRegressionOnIdenticalSuites(t *testing.T) {
	samples := map[string][]float64{
		"a": jitter(100, 7),
		"b": jitter(500, 7),
	}
	rep, err := Compare(mkSuite("short", samples), mkSuite("short", samples), CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("Gate() on identical suites: %v", err)
	}
	for _, d := range rep.Deltas {
		if d.Regression || d.Improvement {
			t.Fatalf("identical suites produced verdict %+v", d)
		}
	}
}

// TestCompareBelowThresholdSlowdownWarnsButPasses: a significant but
// sub-threshold slowdown must not gate (the CI job is warn-only there).
func TestCompareBelowThresholdSlowdownWarnsButPasses(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"a": jitter(100, 7)})
	head := mkSuite("short", map[string][]float64{"a": jitter(130, 7)}) // +30%
	rep, err := Compare(base, head, CompareConfig{MaxRegress: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Deltas[0]
	if !d.Significant {
		t.Fatalf("30%% shift on tight samples should be significant: %+v", d)
	}
	if d.Regression {
		t.Fatalf("sub-threshold slowdown gated: %+v", d)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("Gate() = %v, want nil below threshold", err)
	}
}

func TestCompareFlagsImprovement(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"a": jitter(200, 7)})
	head := mkSuite("short", map[string][]float64{"a": jitter(100, 7)})
	rep, err := Compare(base, head, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Deltas[0]; !d.Improvement || d.Regression {
		t.Fatalf("2x speedup not flagged as improvement: %+v", d)
	}
}

// TestCompareWorkloadDriftExcludedFromGate: when a deterministic metric
// (solver iteration count) differs, the timing delta is incomparable —
// it must be reported as drift, never as a regression.
func TestCompareWorkloadDriftExcludedFromGate(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"solve/csr/cg": jitter(100, 7)})
	head := mkSuite("short", map[string][]float64{"solve/csr/cg": jitter(400, 7)})
	base.Results[0].Metrics = map[string]float64{"iterations": 90}
	head.Results[0].Metrics = map[string]float64{"iterations": 240}
	rep, err := Compare(base, head, CompareConfig{MaxRegress: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("drifted workload gated: %v", err)
	}
	drifted := rep.Drifted()
	if len(drifted) != 1 || drifted[0].Drifted[0] != "iterations" {
		t.Fatalf("drift not reported: %+v", rep.Deltas)
	}
}

func TestCompareMissingBenchmarksNeverGate(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"retired": jitter(100, 7)})
	head := mkSuite("short", map[string][]float64{"brandnew": jitter(100, 7)})
	rep, err := Compare(base, head, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("presence changes gated: %v", err)
	}
	byName := map[string]string{}
	for _, d := range rep.Deltas {
		byName[d.Name] = d.MissingIn
	}
	if byName["retired"] != "new" || byName["brandnew"] != "old" {
		t.Fatalf("missing markers wrong: %v", byName)
	}
}

func TestComparePresetMismatchRejected(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"a": jitter(1, 3)})
	head := mkSuite("full", map[string][]float64{"a": jitter(1, 3)})
	if _, err := Compare(base, head, CompareConfig{}); err == nil {
		t.Fatal("preset mismatch accepted")
	}
}

// Suites recorded at different GOMAXPROCS run different code on their
// parallel workloads, so Compare must refuse them with a message that
// names both values.
func TestCompareGOMAXPROCSMismatchRejected(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"a": jitter(1, 3)})
	head := mkSuite("short", map[string][]float64{"a": jitter(1, 3)})
	base.GOMAXPROCS, head.GOMAXPROCS = 1, 2
	_, err := Compare(base, head, CompareConfig{})
	if err == nil {
		t.Fatal("GOMAXPROCS mismatch accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "GOMAXPROCS") || !strings.Contains(msg, "1") || !strings.Contains(msg, "2") {
		t.Fatalf("mismatch message %q does not name GOMAXPROCS and both values", msg)
	}
	head.GOMAXPROCS = 1
	if _, err := Compare(base, head, CompareConfig{}); err != nil {
		t.Fatalf("equal GOMAXPROCS rejected: %v", err)
	}
}

// withMem attaches allocation columns to every result in a suite.
func withMem(s *Suite, allocs map[string]float64) *Suite {
	for i := range s.Results {
		if a, ok := allocs[s.Results[i].Name]; ok {
			s.Results[i].Mem = &MemStats{AllocsPerOp: a, BytesPerOp: a * 64}
		}
	}
	return s
}

// TestCompareAllocGateFlagsGrowth is the acceptance test for the
// allocation gate: an allocs/op explosion on a timing-stable benchmark
// must fail Gate even though the timing gate stays green.
func TestCompareAllocGateFlagsGrowth(t *testing.T) {
	samples := map[string][]float64{"engine/apply/serial": jitter(100, 7)}
	base := withMem(mkSuite("short", samples), map[string]float64{"engine/apply/serial": 4})
	head := withMem(mkSuite("short", samples), map[string]float64{"engine/apply/serial": 120})
	rep, err := Compare(base, head, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Deltas[0]
	if !d.HasMem || d.OldAllocs != 4 || d.NewAllocs != 120 {
		t.Fatalf("alloc columns not threaded: %+v", d)
	}
	if !d.AllocRegression || d.Regression {
		t.Fatalf("want alloc-only regression, got %+v", d)
	}
	if aregs := rep.AllocRegressions(); len(aregs) != 1 {
		t.Fatalf("AllocRegressions = %+v", aregs)
	}
	err = rep.Gate()
	if err == nil {
		t.Fatal("Gate() = nil, want error on alloc growth")
	}
	if !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "engine/apply/serial") {
		t.Fatalf("gate error %q does not describe the alloc regression", err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	if !strings.Contains(buf.String(), "ALLOC REGRESSION") {
		t.Fatalf("report missing alloc marker:\n%s", buf.String())
	}
}

// The alloc gate tolerates small absolute growth (below allocGateFloor)
// whatever the ratio, skips benchmarks without Mem on both sides, skips
// drifted workloads, and can be disabled with a negative threshold.
func TestCompareAllocGateTolerances(t *testing.T) {
	samples := map[string][]float64{"a": jitter(100, 7)}

	// 0.5 -> 8 allocs/op is 16x relative but under the absolute floor.
	rep, err := Compare(
		withMem(mkSuite("short", samples), map[string]float64{"a": 0.5}),
		withMem(mkSuite("short", samples), map[string]float64{"a": 8}),
		CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].AllocRegression {
		t.Fatalf("sub-floor growth gated: %+v", rep.Deltas[0])
	}

	// Mem on only one side: never alloc-gates, HasMem stays false.
	rep, err = Compare(
		mkSuite("short", samples),
		withMem(mkSuite("short", samples), map[string]float64{"a": 500}),
		CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].HasMem || rep.Deltas[0].AllocRegression {
		t.Fatalf("one-sided Mem gated: %+v", rep.Deltas[0])
	}

	// Drifted workload: alloc delta is incomparable, never gates.
	base := withMem(mkSuite("short", samples), map[string]float64{"a": 4})
	head := withMem(mkSuite("short", samples), map[string]float64{"a": 400})
	base.Results[0].Metrics = map[string]float64{"iterations": 90}
	head.Results[0].Metrics = map[string]float64{"iterations": 240}
	rep, err = Compare(base, head, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].AllocRegression {
		t.Fatalf("drifted workload alloc-gated: %+v", rep.Deltas[0])
	}

	// Negative threshold disables the gate outright.
	rep, err = Compare(
		withMem(mkSuite("short", samples), map[string]float64{"a": 4}),
		withMem(mkSuite("short", samples), map[string]float64{"a": 4000}),
		CompareConfig{MaxAllocRegress: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].AllocRegression {
		t.Fatalf("disabled alloc gate fired: %+v", rep.Deltas[0])
	}
	if err := rep.Gate(); err != nil {
		t.Fatalf("Gate() with disabled alloc gate: %v", err)
	}
}

func TestReportFormatMentionsRegression(t *testing.T) {
	base := mkSuite("short", map[string][]float64{"a": jitter(100, 7)})
	head := mkSuite("short", map[string][]float64{"a": jitter(500, 7)})
	rep, err := Compare(base, head, CompareConfig{MaxRegress: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "geomean") {
		t.Fatalf("report missing markers:\n%s", out)
	}
}

func TestSuiteJSONRoundTrip(t *testing.T) {
	s := mkSuite("short", map[string][]float64{"a": jitter(100, 5)})
	s.Results[0].Metrics = map[string]float64{"iterations": 42}
	path := filepath.Join(t.TempDir(), "suite.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Preset != "short" || len(got.Results) != 1 || got.Results[0].Metrics["iterations"] != 42 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Results[0].MedianNs != s.Results[0].MedianNs {
		t.Fatalf("median changed in round trip")
	}
}

func TestReadSuiteRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	badSchema := filepath.Join(dir, "schema.json")
	os.WriteFile(badSchema, []byte(`{"schema": 999, "results": [{"name":"a","samplesNs":[1]}]}`), 0o644)
	if _, err := ReadSuite(badSchema); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"schema": 1, "results": []}`), 0o644)
	if _, err := ReadSuite(empty); err == nil {
		t.Fatal("empty suite accepted")
	}
	if _, err := ReadSuite(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
