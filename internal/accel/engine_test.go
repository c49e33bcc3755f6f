package accel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/matgen"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// smallSystem builds a small banded SPD matrix whose band maps fully onto
// 64-wide blocks.
func smallSystem(t *testing.T, rows int) (*sparse.CSR, *blocking.Plan) {
	t.Helper()
	spec := matgen.Spec{
		Name: "eng_test", Rows: rows, NNZ: rows * 12, SPD: true,
		Class: matgen.Banded, Band: 24, ExpSpread: 8, Seed: 99, DiagMargin: 0.1,
	}
	m := spec.Generate()
	sub := blocking.Substrate{
		Sizes:     []int{64},
		MaxPad:    core.MaxPadBits,
		Threshold: func(int) int { return 16 },
	}
	plan, err := blocking.Preprocess(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Efficiency() < 0.5 {
		t.Fatalf("test system blocked only %.2f", plan.Stats.Efficiency())
	}
	return m, plan
}

// The functional engine must reproduce the CSR MVM to within the rounding
// difference between exact-dot truncation and serial double accumulation.
func TestEngineMatchesCSR(t *testing.T) {
	m, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Rows() != m.Rows() || eng.Cols() != m.Cols() {
		t.Fatal("engine dims")
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, m.Rows())
	y2 := make([]float64, m.Rows())
	eng.Apply(y1, x)
	m.MulVec(y2, x)
	for i := range y1 {
		rel := math.Abs(y1[i]-y2[i]) / math.Max(1, math.Abs(y2[i]))
		if rel > 1e-12 {
			t.Fatalf("row %d: engine %g vs CSR %g (rel %g)", i, y1[i], y2[i], rel)
		}
	}
	st := eng.Stats()
	if st.Ops == 0 || st.Conversions == 0 {
		t.Error("engine stats empty")
	}
	if eng.Clusters() != len(plan.Blocks) {
		t.Errorf("%d clusters for %d blocks", eng.Clusters(), len(plan.Blocks))
	}
}

// §VII-C: CG over the functional accelerator converges in the same number
// of iterations as over the plain matrix, because both compute at (at
// least) IEEE double precision.
func TestEngineSolverIterationParity(t *testing.T) {
	m, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.Ones(m.Rows())
	opt := solver.Options{Tol: 1e-9, MaxIter: 2000}
	ref, err := solver.CG(solver.CSROperator{M: m}, b, opt)
	if err != nil || !ref.Converged {
		t.Fatalf("reference CG: %v %+v", err, ref)
	}
	acc, err := solver.CG(eng, b, opt)
	if err != nil || !acc.Converged {
		t.Fatalf("accelerator CG: %v", err)
	}
	diff := acc.Iterations - ref.Iterations
	if diff < -1 || diff > 1 {
		t.Errorf("iteration counts differ: accelerator %d vs reference %d",
			acc.Iterations, ref.Iterations)
	}
	// Solutions agree to solver tolerance.
	d := sparse.Sub(acc.X, ref.X)
	if sparse.Norm2(d)/sparse.Norm2(ref.X) > 1e-6 {
		t.Errorf("solutions diverge by %g", sparse.Norm2(d)/sparse.Norm2(ref.X))
	}
}

// The ideal (error-free) design point of the paper: TaOx 1-bit cells at
// range 1500 with AN protection leave no uncorrected errors.
func TestEngineDesignPointClean(t *testing.T) {
	m, plan := smallSystem(t, 128)
	cfg := core.DefaultClusterConfig()
	cfg.InjectErrors = true // full error model at the design point
	eng, err := NewEngine(plan, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.Ones(m.Cols())
	y1 := make([]float64, m.Rows())
	eng.Apply(y1, x)
	y2 := make([]float64, m.Rows())
	m.MulVec(y2, x)
	for i := range y1 {
		rel := math.Abs(y1[i]-y2[i]) / math.Max(1, math.Abs(y2[i]))
		if rel > 1e-9 {
			t.Fatalf("design point perturbed row %d by %g", i, rel)
		}
	}
}

// Degraded device (2-bit cells, low range) must measurably corrupt the
// computation — the Fig. 12 premise.
func TestEngineDegradedDeviceErrs(t *testing.T) {
	m, plan := smallSystem(t, 192)
	cfg := core.DefaultClusterConfig()
	cfg.InjectErrors = true
	// 64-wide columns are physically safe at moderate ranges (that is the
	// point of the paper's block-size cap), so stress hard: 2-bit cells,
	// range 100, 5%-of-window programming error.
	cfg.Device.BitsPerCell = 2
	cfg.Device.DynamicRange = 100
	cfg.Device.ProgError = 0.05
	eng, err := NewEngine(plan, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, m.Rows())
	eng.Apply(y1, x)
	y2 := make([]float64, m.Rows())
	m.MulVec(y2, x)
	var maxRel float64
	for i := range y1 {
		rel := math.Abs(y1[i]-y2[i]) / math.Max(1e-30, math.Abs(y2[i]))
		if rel > maxRel {
			maxRel = rel
		}
	}
	if maxRel < 1e-13 {
		t.Errorf("degraded device produced no visible error (max rel %g)", maxRel)
	}
	st := eng.Stats()
	if st.AN.Total() == st.AN.OK {
		t.Error("no AN activity under a degraded device")
	}
}

func TestEngineDimensionPanics(t *testing.T) {
	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	eng.Apply(make([]float64, 5), make([]float64, 128))
}

// Blocks at the matrix edge (grid-aligned block exceeding matrix bounds)
// must clip correctly.
func TestEngineEdgeClipping(t *testing.T) {
	spec := matgen.Spec{
		Name: "clip", Rows: 150, NNZ: 150 * 10, SPD: true,
		Class: matgen.Banded, Band: 30, ExpSpread: 6, Seed: 5, DiagMargin: 0.1,
	}
	m := spec.Generate()
	sub := blocking.Substrate{
		Sizes:     []int{64},
		MaxPad:    core.MaxPadBits,
		Threshold: func(int) int { return 8 },
	}
	plan, err := blocking.Preprocess(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.Ones(150)
	y1 := make([]float64, 150)
	eng.Apply(y1, x)
	y2 := make([]float64, 150)
	m.MulVec(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-9*math.Max(1, math.Abs(y2[i])) {
			t.Fatalf("edge row %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

// Engine.Stats must equal the field-wise sum over per-cluster stats. The
// sum is computed by reflection over every numeric field (recursing into
// nested structs), so a counter added to ComputeStats but dropped from
// the Merge path fails here.
func TestEngineStatsMatchPerClusterSums(t *testing.T) {
	m, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := sparse.Ones(m.Cols())
	y := make([]float64, m.Rows())
	eng.Apply(y, x)
	eng.Apply(y, x)

	perCall := map[string]bool{"ColumnSlicesUsed": true, "MinSettleSlice": true}
	var sum func(agg, cl reflect.Value, path string) // adds cl's fields into agg
	want := core.ComputeStats{}
	sum = func(agg, cl reflect.Value, path string) {
		for i := 0; i < agg.NumField(); i++ {
			name := agg.Type().Field(i).Name
			if perCall[name] {
				continue
			}
			switch agg.Field(i).Kind() {
			case reflect.Int:
				agg.Field(i).SetInt(agg.Field(i).Int() + cl.Field(i).Int())
			case reflect.Uint64:
				agg.Field(i).SetUint(agg.Field(i).Uint() + cl.Field(i).Uint())
			case reflect.Struct:
				sum(agg.Field(i), cl.Field(i), path+name+".")
			case reflect.Slice:
				// per-call diagnostics only
			default:
				t.Fatalf("unhandled stats field kind %s for %s%s", agg.Field(i).Kind(), path, name)
			}
		}
	}
	for _, eb := range eng.clusters {
		sum(reflect.ValueOf(&want).Elem(), reflect.ValueOf(eb.cluster.Stats()).Elem(), "")
	}
	got := eng.Stats()
	got.ColumnSlicesUsed = nil
	got.MinSettleSlice = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregated stats drop fields:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Ops != 2*eng.Clusters() {
		t.Errorf("Ops = %d, want %d", got.Ops, 2*eng.Clusters())
	}
}

// An entry outside a block's clipped extent means the preprocessing plan
// is corrupt; clipCoefs must report it instead of silently dropping the
// coefficient (which would change the operator).
func TestClipCoefsRejectsOutOfExtentEntries(t *testing.T) {
	blk := &blocking.Block{
		RowOff: 64, ColOff: 64, Size: 64,
		Entries: []blocking.Entry{
			{Row: 64, Col: 64, Val: 1},
			{Row: 127, Col: 99, Val: 2},
		},
	}
	// Fully in-bounds block clips cleanly.
	cs, err := clipCoefs(blk, 64, 64)
	if err != nil || len(cs) != 2 {
		t.Fatalf("in-bounds clip: %v, %d coefs", err, len(cs))
	}
	// Clip the extent down (edge block): the second entry's row 127 now
	// lies outside the 40-row extent.
	if _, err := clipCoefs(blk, 40, 64); err == nil {
		t.Error("expected error for entry outside clipped row extent")
	}
	if _, err := clipCoefs(blk, 64, 30); err == nil {
		t.Error("expected error for entry outside clipped col extent")
	}
	blk.Entries = append(blk.Entries, blocking.Entry{Row: 50, Col: 64, Val: 3}) // above RowOff
	if _, err := clipCoefs(blk, 64, 64); err == nil {
		t.Error("expected error for entry before block origin")
	}
}

// Fork shares programmed crossbar state: a fork of an aged engine applies
// bit-identically to a freshly programmed engine, and origin + fork can
// run concurrently (race-checked).
func TestEngineForkBitIdenticalAndConcurrent(t *testing.T) {
	m, plan := smallSystem(t, 192)
	cfg := core.DefaultClusterConfig()
	base, err := NewEngine(plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(plan, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	scratch := make([]float64, m.Rows())
	for i := 0; i < 3; i++ { // age the base
		base.Apply(scratch, x)
	}
	fork := base.Fork()
	if st := fork.Stats(); st.Ops != 0 {
		t.Error("fork inherited statistics")
	}
	want := make([]float64, m.Rows())
	got := make([]float64, m.Rows())
	fresh.Apply(want, x)
	fork.Apply(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: fork %x vs fresh %x", i, got[i], want[i])
		}
	}

	done := make(chan struct{}, 2)
	for _, e := range []*Engine{base, fork} {
		go func(e *Engine) {
			y := make([]float64, m.Rows())
			for i := 0; i < 3; i++ {
				e.Apply(y, x)
			}
			done <- struct{}{}
		}(e)
	}
	<-done
	<-done
}

// TakeStats returns disjoint windows: the second take reports only work
// performed after the first.
func TestEngineTakeStatsWindows(t *testing.T) {
	m, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.Rows())

	eng.Apply(y, x)
	first := eng.TakeStats()
	if first.Ops == 0 || first.Conversions == 0 {
		t.Fatalf("first window empty: %+v", first)
	}
	if empty := eng.TakeStats(); empty.Ops != 0 || empty.Conversions != 0 {
		t.Errorf("second take without work is non-empty: %+v", empty)
	}
	eng.Apply(y, x)
	eng.Apply(y, x)
	second := eng.TakeStats()
	if second.Ops != 2*first.Ops {
		t.Errorf("window ops %d, want %d", second.Ops, 2*first.Ops)
	}
}
