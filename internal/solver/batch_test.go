package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/sparse"
)

// batchPoisson builds the SPD 1D Laplacian tridiag(-1, 2, -1).
func batchPoisson(n int) *sparse.CSR {
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

func randRHS(rng *rand.Rand, k, n int) [][]float64 {
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = rng.NormFloat64()
		}
	}
	return bs
}

// requireBitIdentical asserts two results match bit for bit.
func requireBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged ||
		got.Breakdown != want.Breakdown ||
		math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: got {iters=%d conv=%v bd=%v rn=%v}, want {iters=%d conv=%v bd=%v rn=%v}",
			label, got.Iterations, got.Converged, got.Breakdown, got.Residual,
			want.Iterations, want.Converged, want.Breakdown, want.Residual)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %v, want %v (not bit-identical)", label, i, got.X[i], want.X[i])
		}
	}
}

// TestCGBatchMatchesSerialCSR: lockstep batch CG on the CSR reference
// operator is bit-identical, system by system, to serial CG — including
// systems that converge at different iteration counts and an all-zero
// RHS that converges without iterating.
func TestCGBatchMatchesSerialCSR(t *testing.T) {
	m := batchPoisson(40)
	op := CSROperator{M: m}
	rng := rand.New(rand.NewSource(11))
	bs := randRHS(rng, 4, m.Rows())
	// Scale one RHS down so it converges at a different iteration, and
	// zero another entirely.
	for i := range bs[1] {
		bs[1][i] *= 1e-6
	}
	for i := range bs[2] {
		bs[2][i] = 0
	}

	for _, jacobi := range []bool{false, true} {
		opt := Options{Tol: 1e-10, RecordResiduals: true}
		if jacobi {
			opt.Diag = m.Diagonal()
		}
		got, err := CGBatch(op, bs, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range bs {
			want, err := CG(op, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, "jacobi="+map[bool]string{false: "off", true: "on"}[jacobi], got[k], want)
			if len(got[k].Residuals) != len(want.Residuals) {
				t.Fatalf("system %d: %d recorded residuals, want %d", k, len(got[k].Residuals), len(want.Residuals))
			}
		}
	}
}

// TestCGBatchMatchesSerialAccel: the same equivalence holds on the
// functional crossbar engine, where ApplyBatch spreads the batch over
// the engine and its cached forks — the server-side coalescing path.
func TestCGBatchMatchesSerialAccel(t *testing.T) {
	m := batchPoisson(48)
	plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	bs := randRHS(rng, 3, m.Rows())
	opt := Options{Tol: 1e-8}

	got, err := CGBatch(eng, bs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range bs {
		want, err := CG(ref, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "accel", got[k], want)
	}
}

// TestCGBatchMonitors: each system's monitor fires exactly once per
// counted iteration, with the final residual matching the result.
func TestCGBatchMonitors(t *testing.T) {
	m := batchPoisson(32)
	rng := rand.New(rand.NewSource(17))
	bs := randRHS(rng, 3, m.Rows())
	counts := make([]int, len(bs))
	lastRN := make([]float64, len(bs))
	monitors := make([]Monitor, len(bs))
	for k := range monitors {
		k := k
		monitors[k] = func(iter int, rn float64) {
			counts[k]++
			if iter != counts[k] {
				t.Errorf("system %d: monitor iter %d at call %d", k, iter, counts[k])
			}
			lastRN[k] = rn
		}
	}
	res, err := CGBatch(CSROperator{M: m}, bs, Options{Tol: 1e-8}, monitors)
	if err != nil {
		t.Fatal(err)
	}
	for k := range bs {
		if counts[k] != res[k].Iterations {
			t.Errorf("system %d: %d monitor calls for %d iterations", k, counts[k], res[k].Iterations)
		}
		if counts[k] == 0 {
			t.Errorf("system %d: monitor never fired", k)
		}
		if math.Float64bits(lastRN[k]) != math.Float64bits(res[k].Residual) {
			t.Errorf("system %d: last monitored rn %v != result %v", k, lastRN[k], res[k].Residual)
		}
	}
}

// TestCGBatchContextCancel: a canceled context returns partial results
// plus an error, mirroring serial CG.
func TestCGBatchContextCancel(t *testing.T) {
	m := batchPoisson(64)
	rng := rand.New(rand.NewSource(19))
	bs := randRHS(rng, 2, m.Rows())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CGBatch(CSROperator{M: m}, bs, Options{Tol: 1e-12, Ctx: ctx}, nil)
	if err == nil {
		t.Fatal("expected context error")
	}
	if len(res) != 2 || res[0] == nil || res[0].Converged {
		t.Fatalf("partial results %+v", res)
	}
}

func TestCGBatchValidation(t *testing.T) {
	m := batchPoisson(8)
	op := CSROperator{M: m}
	if _, err := CGBatch(op, [][]float64{make([]float64, 7)}, Options{}, nil); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	if _, err := CGBatch(op, randRHS(rand.New(rand.NewSource(1)), 2, 8), Options{}, make([]Monitor, 1)); err == nil {
		t.Fatal("monitor count mismatch not rejected")
	}
	if _, err := CGBatch(op, [][]float64{make([]float64, 8)}, Options{Diag: make([]float64, 3)}, nil); err == nil {
		t.Fatal("short diagonal not rejected")
	}
	res, err := CGBatch(op, nil, Options{}, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("all-nil Tee must be nil to preserve the fast path")
	}
	var a, b int
	one := func(int, float64) { a++ }
	if m := Tee(nil, one); m == nil {
		t.Fatal("single sink lost")
	} else {
		m(1, 0.5)
	}
	if a != 1 {
		t.Fatalf("single-sink call count %d", a)
	}
	two := Tee(one, func(int, float64) { b++ })
	two(2, 0.25)
	if a != 2 || b != 1 {
		t.Fatalf("fan-out counts a=%d b=%d", a, b)
	}
}
