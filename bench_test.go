// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (run `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core kernels. The table/figure benchmarks
// measure the cost of regenerating the corresponding result on this
// machine and report the headline quantity as a custom metric, so a bench
// run doubles as a compact reproduction log:
//
//	BenchmarkFig8Speedup    reports geomean_speedup_x (paper: 10.3)
//	BenchmarkFig9Energy     reports mean_energy_improvement_x (paper: 10.9)
//	...
//
// The cmd/experiments binary prints the full per-matrix tables.
package memsci_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"memsci"
	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/device"
	"memsci/internal/direct"
	"memsci/internal/energy"
	"memsci/internal/gpu"
	"memsci/internal/lowprec"
	"memsci/internal/matgen"
	"memsci/internal/montecarlo"
	"memsci/internal/obs"
	"memsci/internal/report"
	"memsci/internal/serve"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// benchScale keeps full-catalog benchmarks tractable; the experiments
// binary runs at full size.
const benchScale = 0.1

func geoMean(v []float64) float64 { return report.GeoMean(v) }

// evaluateBenchCatalog runs the Fig. 8/9/10 model over the scaled catalog.
func evaluateBenchCatalog(b *testing.B) []*accel.Evaluation {
	b.Helper()
	sys := accel.NewSystem()
	var evals []*accel.Evaluation
	for _, spec := range matgen.Catalog() {
		m := spec.GenerateScaled(benchScale)
		ev, err := accel.Evaluate(spec.Name, m, !spec.SPD, spec.SolveIters, sys)
		if err != nil {
			b.Fatal(err)
		}
		evals = append(evals, ev)
	}
	return evals
}

// ---- Table II: matrix set + blocking efficiency ----

func BenchmarkTable2Blocking(b *testing.B) {
	specs := matgen.Catalog()
	var eff float64
	for i := 0; i < b.N; i++ {
		eff = 0
		for _, spec := range specs {
			m := spec.GenerateScaled(benchScale)
			plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
			if err != nil {
				b.Fatal(err)
			}
			eff += plan.Stats.Efficiency()
		}
	}
	b.ReportMetric(eff/float64(len(specs))*100, "mean_blocked_%")
}

// ---- Table III: crossbar area/energy/latency model ----

func BenchmarkTable3CrossbarSizes(b *testing.B) {
	cfg := energy.Default()
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, size := range []int{64, 128, 256, 512} {
			sink += cfg.XbarArea(size) + cfg.XbarOpEnergy(size) + cfg.XbarOpLatency(size)
		}
	}
	b.ReportMetric(cfg.XbarOpEnergy(512)*1e12, "xbar512_pJ")
	_ = sink
}

// ---- Figure 6: activation scheduling ----

func BenchmarkFig6Scheduling(b *testing.B) {
	var saved int
	for i := 0; i < b.N; i++ {
		_, v := core.PlanSchedule(core.Vertical, 127, 64, 100, 0)
		_, h := core.PlanSchedule(core.Hybrid, 127, 64, 100, 2)
		saved = v.Activations - h.Activations
	}
	b.ReportMetric(float64(saved), "activations_saved_hybrid")
}

// ---- Figure 7/11: blocking patterns ----

func BenchmarkFig7BlockingPatterns(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"Pres_Poisson", "xenon1"} {
			spec, _ := matgen.ByName(name)
			m := spec.GenerateScaled(benchScale)
			plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
			if err != nil {
				b.Fatal(err)
			}
			eff = plan.Stats.Efficiency()
		}
	}
	b.ReportMetric(eff*100, "xenon1_blocked_%")
}

func BenchmarkFig11UnblockableMatrix(b *testing.B) {
	spec, _ := matgen.ByName("ns3Da")
	var eff float64
	for i := 0; i < b.N; i++ {
		m := spec.GenerateScaled(0.5)
		plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
		if err != nil {
			b.Fatal(err)
		}
		eff = plan.Stats.Efficiency()
	}
	b.ReportMetric(eff*100, "ns3Da_blocked_%")
}

// ---- Figure 8: speedup over the GPU baseline ----

func BenchmarkFig8Speedup(b *testing.B) {
	var gm float64
	for i := 0; i < b.N; i++ {
		evals := evaluateBenchCatalog(b)
		var s []float64
		for _, ev := range evals {
			s = append(s, ev.Speedup())
		}
		gm = geoMean(s)
	}
	b.ReportMetric(gm, "geomean_speedup_x")
}

// ---- Figure 9: energy vs the GPU baseline ----

func BenchmarkFig9Energy(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		evals := evaluateBenchCatalog(b)
		var inv []float64
		for _, ev := range evals {
			inv = append(inv, 1/ev.EnergyRatio())
		}
		imp = geoMean(inv)
	}
	b.ReportMetric(imp, "energy_improvement_x")
}

// ---- Figure 10: preprocessing + write overhead ----

func BenchmarkFig10Overhead(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, ev := range evaluateBenchCatalog(b) {
			if ev.Target == accel.OnAccelerator && ev.InitOverhead() > worst {
				worst = ev.InitOverhead()
			}
		}
	}
	b.ReportMetric(worst*100, "worst_init_overhead_%")
}

// ---- Figures 12/13: Monte-Carlo device sensitivity (one trial each) ----

func mcBenchRun(b *testing.B, dev device.Params, seed int64) int {
	b.Helper()
	study, err := montecarlo.DefaultStudy(1, seed)
	if err != nil {
		b.Fatal(err)
	}
	it, err := study.Run(dev, seed)
	if err != nil {
		b.Fatal(err)
	}
	return it
}

func BenchmarkFig12DynamicRange(b *testing.B) {
	base := device.TaOx()
	stressed := device.TaOx()
	stressed.BitsPerCell = 2
	stressed.DynamicRange = 750
	var ratio float64
	for i := 0; i < b.N; i++ {
		ref := mcBenchRun(b, base, int64(i))
		bad := mcBenchRun(b, stressed, int64(i))
		ratio = float64(bad) / float64(ref)
	}
	b.ReportMetric(ratio, "iter_ratio_2bit_750")
}

func BenchmarkFig13ProgError(b *testing.B) {
	base := device.TaOx()
	stressed := device.TaOx()
	stressed.BitsPerCell = 2
	stressed.ProgError = 0.05
	var ratio float64
	for i := 0; i < b.N; i++ {
		ref := mcBenchRun(b, base, int64(i))
		bad := mcBenchRun(b, stressed, int64(i))
		ratio = float64(bad) / float64(ref)
	}
	b.ReportMetric(ratio, "iter_ratio_2bit_5pct")
}

// ---- §VIII-C area and §VIII-E endurance ----

func BenchmarkAreaModel(b *testing.B) {
	cfg := energy.Default()
	var total float64
	for i := 0; i < b.N; i++ {
		total = cfg.SystemArea().Total
	}
	b.ReportMetric(total, "system_mm2")
}

func BenchmarkEndurance(b *testing.B) {
	cfg := energy.Default()
	var years float64
	for i := 0; i < b.N; i++ {
		years = cfg.EnduranceYears(0.05) // 50 ms solve, worst realistic case
	}
	b.ReportMetric(years, "lifetime_years")
}

// ---- Micro-benchmarks: core kernels ----

func BenchmarkClusterMVM64(b *testing.B) {
	spec := matgen.Spec{
		Name: "bench64", Rows: 64, NNZ: 64 * 10, SPD: true, Class: matgen.Banded,
		Band: 32, ExpSpread: 8, Seed: 1, DiagMargin: 0.1,
	}
	m := spec.Generate()
	var coefs []core.Coef
	for i := 0; i < 64; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			coefs = append(coefs, core.Coef{Row: i, Col: m.ColIdx[k], Val: m.Vals[k]})
		}
	}
	blk, err := core.NewBlock(64, 64, coefs, core.MaxPadBits)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.NewCluster(blk, core.DefaultClusterConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := sparse.Ones(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.MulVec(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine builds a functional engine over a banded system large
// enough to program a few dozen clusters.
func benchEngine(b *testing.B) (*accel.Engine, []float64, []float64) {
	b.Helper()
	spec := matgen.Spec{
		Name: "bench_par", Rows: 768, NNZ: 768 * 12, SPD: true, Class: matgen.Banded,
		Band: 48, ExpSpread: 8, Seed: 21, DiagMargin: 0.1,
	}
	m := spec.Generate()
	sub := blocking.Substrate{
		Sizes:     []int{64},
		MaxPad:    core.MaxPadBits,
		Threshold: func(int) int { return 16 },
	}
	plan, err := blocking.Preprocess(m, sub)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	xrng := rand.New(rand.NewSource(4))
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = xrng.NormFloat64()
	}
	return eng, make([]float64, m.Rows()), x
}

// BenchmarkEngineApplySerial measures one full-operator Apply, its
// clusters run one after another on the calling goroutine.
func BenchmarkEngineApplySerial(b *testing.B) {
	eng, y, x := benchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Apply(y, x)
	}
	b.ReportMetric(float64(eng.Clusters()), "clusters")
}

// BenchmarkEngineSolveMonitor pins the telemetry overhead on solves at
// BenchmarkEngineApplySerial scale: "none" exercises the nil-Monitor
// fast path (one predictable branch per iteration — the acceptance bound
// is <= 5% vs the pre-hook solver, and the branch is orders of magnitude
// below that), "recorder" attaches the full obs.Recorder including
// per-iteration hardware-counter sampling.
func BenchmarkEngineSolveMonitor(b *testing.B) {
	run := func(b *testing.B, attach bool) {
		eng, _, _ := benchEngine(b)
		rhs := sparse.Ones(eng.Rows())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt := solver.Options{Tol: 1e-8, MaxIter: 40}
			var rec *obs.Recorder
			if attach {
				rec = obs.NewRecorder(obs.NewSpan("bench", "solve"), eng.HWCounters)
				opt.Monitor = rec.Observe
			}
			if _, err := solver.CG(eng, rhs, opt); err != nil {
				b.Fatal(err)
			}
			if attach {
				rec.Finish()
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, false) })
	b.Run("recorder", func(b *testing.B) { run(b, true) })
}

// BenchmarkNewEngineParallel measures concurrent block encoding and
// programming (NewEngine).
func BenchmarkNewEngineParallel(b *testing.B) {
	spec := matgen.Spec{
		Name: "bench_prog", Rows: 768, NNZ: 768 * 12, SPD: true, Class: matgen.Banded,
		Band: 48, ExpSpread: 8, Seed: 21, DiagMargin: 0.1,
	}
	m := spec.Generate()
	sub := blocking.Substrate{
		Sizes:     []int{64},
		MaxPad:    core.MaxPadBits,
		Threshold: func(int) int { return 16 },
	}
	plan, err := blocking.Preprocess(m, sub)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSRSpMV(b *testing.B) {
	spec, _ := matgen.ByName("torso2")
	m := spec.GenerateScaled(0.2)
	x := sparse.Ones(m.Cols())
	y := make([]float64, m.Rows())
	b.SetBytes(int64(m.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}

func BenchmarkPreprocess(b *testing.B) {
	spec, _ := matgen.ByName("qa8fm")
	m := spec.GenerateScaled(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blocking.Preprocess(m, blocking.DefaultSubstrate()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixGeneration(b *testing.B) {
	spec, _ := matgen.ByName("nasasrb")
	for i := 0; i < b.N; i++ {
		m := spec.GenerateScaled(0.25)
		if m.NNZ() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkCGSolve(b *testing.B) {
	spec, _ := matgen.ByName("crystm03")
	m := spec.GenerateScaled(0.05)
	if _, err := m.JacobiScale(true); err != nil {
		b.Fatal(err)
	}
	rhs := sparse.Ones(m.Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.CG(solver.CSROperator{M: m}, rhs, solver.Options{Tol: 1e-8, MaxIter: 5000})
		if err != nil || !res.Converged {
			b.Fatalf("cg: %v converged=%v", err, res != nil && res.Converged)
		}
	}
}

func BenchmarkGPUModel(b *testing.B) {
	model := gpu.P100()
	shape := gpu.MatrixShape{Rows: 100000, Cols: 100000, NNZ: 2e6, ScatterFrac: 0.2}
	var t float64
	for i := 0; i < b.N; i++ {
		t = model.IterationTime(shape, false)
	}
	b.ReportMetric(t*1e6, "gpu_iter_us")
}

func BenchmarkEncodeBlock(b *testing.B) {
	vals := make([]float64, 0, 4096)
	for i := 0; i < 4096; i++ {
		vals = append(vals, math.Ldexp(1.5, i%20-10))
	}
	var coefs []core.Coef
	for i, v := range vals {
		coefs = append(coefs, core.Coef{Row: i / 64, Col: i % 64, Val: v})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewBlock(64, 64, coefs, core.MaxPadBits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeEvaluate(b *testing.B) {
	spec, _ := memsci.MatrixByName("wang3")
	m := spec.GenerateScaled(0.5)
	sys := memsci.NewSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsci.Evaluate("wang3", m, true, spec.SolveIters, sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyFactor(b *testing.B) {
	spec, _ := matgen.ByName("crystm03")
	m := spec.GenerateScaled(0.04)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := direct.Cholesky(m, direct.RCM)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(direct.FillIn(m, f), "fill_factor")
		}
	}
}

func BenchmarkAblationEarlyTermination(b *testing.B) {
	spec := matgen.Spec{
		Name: "bench_et", Rows: 128, NNZ: 128 * 12, SPD: true, Class: matgen.Banded,
		Band: 64, ExpSpread: 12, Seed: 13, DiagMargin: 0.05,
	}
	m := spec.Generate()
	var coefs []core.Coef
	for i := 0; i < 128; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			coefs = append(coefs, core.Coef{Row: i, Col: m.ColIdx[k], Val: m.Vals[k]})
		}
	}
	blk, err := core.NewBlock(128, 128, coefs, core.MaxPadBits)
	if err != nil {
		b.Fatal(err)
	}
	// A generic (random) input vector: an all-ones vector would slice to a
	// single nonzero bit plane and trivialize the measurement.
	xrng := rand.New(rand.NewSource(2))
	x := make([]float64, 128)
	for i := range x {
		x[i] = xrng.NormFloat64()
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		on, _ := core.NewCluster(blk, core.DefaultClusterConfig())
		if _, err := on.MulVec(x); err != nil {
			b.Fatal(err)
		}
		// Naive fixed-point emulation applies all 127 vector slices to
		// every plane and column (§IV-B).
		naive := uint64(127) * uint64(on.Planes()) * 128
		ratio = float64(naive) / float64(on.Stats().Conversions)
	}
	b.ReportMetric(ratio, "conversions_saved_vs_naive_x")
}

func BenchmarkMotivationLowPrecision(b *testing.B) {
	spec := matgen.Spec{
		Name: "bench_lp", Rows: 400, NNZ: 400 * 10, SPD: true, Class: matgen.Banded,
		Band: 40, ExpSpread: 8, Seed: 55, DiagMargin: 0.05,
	}
	m := spec.Generate()
	rhs := sparse.Ones(m.Rows())
	var floor float64
	for i := 0; i < b.N; i++ {
		op, err := lowprec.New(m, 16, 512)
		if err != nil {
			b.Fatal(err)
		}
		res, err := solver.CG(op, rhs, solver.Options{Tol: 1e-10, MaxIter: 2000})
		if err != nil {
			b.Fatal(err)
		}
		floor = sparse.Norm2(sparse.Residual(m, res.X, rhs)) / sparse.Norm2(rhs)
	}
	b.ReportMetric(floor, "16bit_residual_floor")
}

// ---- memserve engine cache: miss (program) vs hit (lease) ----

func benchServeMatrix(n int) *sparse.CSR {
	spec := matgen.Spec{
		Name: "bench_serve", Rows: n, NNZ: n * 12, SPD: true,
		Class: matgen.Banded, Band: 24, ExpSpread: 8, Seed: 42, DiagMargin: 0.1,
	}
	return spec.Generate()
}

// BenchmarkServeCacheMiss measures the cost a request pays when its
// matrix is not resident: full blocking + cluster programming. Each
// iteration perturbs one value so every fingerprint is unique.
func BenchmarkServeCacheMiss(b *testing.B) {
	m := benchServeMatrix(512)
	c := serve.NewCache(serve.CacheConfig{MaxClusters: 1 << 30}, core.DefaultClusterConfig(), 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Vals[0] = 10 + float64(i)*1e-9
		l, err := c.Acquire(ctx, m)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
	b.StopTimer()
	if got := c.Stats().Programmings; got != int64(b.N) {
		b.Fatalf("programmings = %d, want %d (every miss programs)", got, b.N)
	}
}

// BenchmarkServeCacheHit measures the steady-state request cost once the
// engine is resident: a fingerprint, one map lookup, and a pool lease.
func BenchmarkServeCacheHit(b *testing.B) {
	m := benchServeMatrix(512)
	c := serve.NewCache(serve.CacheConfig{}, core.DefaultClusterConfig(), 1)
	ctx := context.Background()
	l, err := c.Acquire(ctx, m) // warm the cache
	if err != nil {
		b.Fatal(err)
	}
	l.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := c.Acquire(ctx, m)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
	b.StopTimer()
	if got := c.Stats().Programmings; got != 1 {
		b.Fatalf("programmings = %d, want 1 (hits program nothing)", got)
	}
}
