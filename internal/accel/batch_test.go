package accel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"memsci/internal/core"
)

func batchInputs(rng *rand.Rand, b, n int) ([][]float64, [][]float64) {
	xs := make([][]float64, b)
	ys := make([][]float64, b)
	for k := range xs {
		xs[k] = make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(9)-4)
		}
		ys[k] = make([]float64, n)
	}
	return xs, ys
}

// TestApplyBatchBitIdentical is the arena-isolation gate for the batch
// path (run under -race in CI): Apply and ApplyBatch over the origin
// and its worker forks must produce bit-identical outputs for identical
// inputs, RHS by RHS — the per-worker scratch arenas may not leak into
// each other.
func TestApplyBatchBitIdentical(t *testing.T) {
	_, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xs, got := batchInputs(rng, 9, eng.Cols())

	// Reference: Apply, one RHS at a time.
	want := make([][]float64, len(xs))
	for k := range xs {
		want[k] = make([]float64, eng.Rows())
		eng.Apply(want[k], xs[k])
	}
	serialStats := eng.TakeStats()

	// ApplyBatch across the origin and three worker forks.
	eng.Parallelism = 4
	eng.ApplyBatch(got, xs)
	for k := range xs {
		for i := range got[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("ApplyBatch rhs %d row %d: %g != %g", k, i, got[k][i], want[k][i])
			}
		}
	}
	batchStats := eng.TakeStats()
	if !reflect.DeepEqual(batchStats, serialStats) {
		t.Fatalf("ApplyBatch stats diverge from serial:\n%+v\n%+v", batchStats, serialStats)
	}
}

// Fork arenas must be disjoint at the engine level too: running one
// fork hard must not move an outstanding result obtained from another.
func TestEngineForkScratchDisjoint(t *testing.T) {
	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	xs, _ := batchInputs(rng, 2, eng.Cols())

	f1, f2 := eng.Fork(), eng.Fork()
	y1 := make([]float64, eng.Rows())
	f1.Apply(y1, xs[0])
	snap := append([]float64(nil), y1...)
	// Mutate f2's (and the origin's) scratch arenas heavily.
	tmp := make([]float64, eng.Rows())
	for i := 0; i < 5; i++ {
		f2.Apply(tmp, xs[1])
		eng.Apply(tmp, xs[1])
	}
	for i := range y1 {
		if math.Float64bits(y1[i]) != math.Float64bits(snap[i]) {
			t.Fatalf("row %d moved after sibling-fork work: %g != %g", i, y1[i], snap[i])
		}
	}
}

// ApplyBatch edge cases: empty batch, single RHS, batch smaller than
// the worker count, mismatched lengths.
func TestApplyBatchEdges(t *testing.T) {
	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Parallelism = 8
	eng.ApplyBatch(nil, nil) // no-op

	rng := rand.New(rand.NewSource(9))
	xs, ys := batchInputs(rng, 2, eng.Cols())
	want := make([]float64, eng.Rows())
	ref, _ := NewEngine(plan, core.DefaultClusterConfig(), 1)
	ref.Apply(want, xs[0])

	eng.ApplyBatch(ys[:1], xs[:1])
	for i := range want {
		if math.Float64bits(ys[0][i]) != math.Float64bits(want[i]) {
			t.Fatalf("single-RHS batch row %d: %g != %g", i, ys[0][i], want[i])
		}
	}
	eng.ApplyBatch(ys, xs) // batch of 2 under 8 workers
	for i := range want {
		if math.Float64bits(ys[0][i]) != math.Float64bits(want[i]) {
			t.Fatalf("short batch row %d: %g != %g", i, ys[0][i], want[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ys/xs lengths did not panic")
		}
	}()
	eng.ApplyBatch(ys[:1], xs)
}

// Apply runs its clusters on the calling goroutine whatever the
// engine's Parallelism (which bounds only ApplyBatch's workers), so a
// steady-state Apply allocates nothing, on one cluster or ten.
func TestApplySteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct{ rows, par int }{{128, 1}, {256, 8}} {
		_, plan := smallSystem(t, tc.rows)
		eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		// testing.AllocsPerRun runs at GOMAXPROCS 1, which NewEngine's
		// default would copy; set the worker count explicitly.
		eng.Parallelism = tc.par
		rng := rand.New(rand.NewSource(10))
		xs, _ := batchInputs(rng, 1, eng.Cols())
		y := make([]float64, eng.Rows())
		for i := 0; i < 3; i++ {
			eng.Apply(y, xs[0])
		}
		allocs := testing.AllocsPerRun(20, func() { eng.Apply(y, xs[0]) })
		if allocs != 0 {
			t.Fatalf("%d rows (%d clusters), Parallelism %d: Apply allocated %.1f/run at steady state, want 0",
				tc.rows, eng.Clusters(), tc.par, allocs)
		}
	}
}
