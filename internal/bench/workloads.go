package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/matgen"
	"memsci/internal/serve"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// DeterministicMetrics lists metric keys that must be bit-identical
// across runs of the same code at the same preset. Compare checks them
// for equality and flags workload drift instead of gating on time when
// they disagree — a changed corpus makes a latency delta meaningless.
var DeterministicMetrics = map[string]bool{
	"clusters":   true,
	"iterations": true,
	"nnz":        true,
	"outer":      true,
}

// All returns the benchmark corpus in run order. Order is stable so
// suite JSON diffs cleanly and progress output is predictable.
func All() []Benchmark {
	return []Benchmark{
		{Name: "engine/program", Setup: setupEngineProgram},
		{Name: "engine/apply/serial", Setup: setupEngineApply},
		{Name: "engine/apply/batch", Setup: setupEngineApplyBatch},
		{Name: "engine/apply/inject", Setup: setupEngineApplyInject},
		{Name: "solve/csr/cg", Setup: func(p Preset) (*Instance, error) { return setupCSRSolve(p, "cg") }},
		{Name: "solve/csr/bicgstab", Setup: func(p Preset) (*Instance, error) { return setupCSRSolve(p, "bicgstab") }},
		{Name: "solve/csr/bicg", Setup: func(p Preset) (*Instance, error) { return setupCSRSolve(p, "bicg") }},
		{Name: "solve/csr/gmres", Setup: func(p Preset) (*Instance, error) { return setupCSRSolve(p, "gmres") }},
		{Name: "solve/accel/cg", Setup: setupAccelSolve},
		{Name: "solve/accel/refine", Setup: setupAccelRefine},
		{Name: "serve/cache/hit", Setup: setupCacheHit},
		{Name: "serve/cache/miss", Setup: setupCacheMiss},
	}
}

// engineSpec pins the banded system programmed into the functional
// engine. Seeds are fixed: the generated matrix, the blocking plan and
// the programmed planes are identical on every run at a given preset.
func engineSpec(p Preset) matgen.Spec {
	return matgen.Spec{
		Name: "bench_engine", Rows: p.EngineRows, NNZ: p.EngineRows * 12,
		SPD: true, Class: matgen.Banded, Band: p.EngineBand,
		ExpSpread: 8, Seed: 21, DiagMargin: 0.1,
	}
}

// enginePlan blocks the engine workload onto 64×64 crossbars (the
// paper's smallest substrate tier) so even the short preset programs a
// few dozen clusters.
func enginePlan(p Preset) (*blocking.Plan, error) {
	m := engineSpec(p).Generate()
	sub := blocking.Substrate{
		Sizes:     []int{64},
		MaxPad:    core.MaxPadBits,
		Threshold: func(int) int { return 16 },
	}
	return blocking.Preprocess(m, sub)
}

// setupEngineProgram times NewEngine: block encoding plus the
// programming pass over each block's present cells, the engine-cache
// miss cost.
func setupEngineProgram(p Preset) (*Instance, error) {
	plan, err := enginePlan(p)
	if err != nil {
		return nil, err
	}
	var eng *accel.Engine
	return &Instance{
		Run: func() error {
			e, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
			if err != nil {
				return err
			}
			eng = e
			return nil
		},
		Metrics: func(total time.Duration) map[string]float64 {
			return map[string]float64{
				"clusters":         float64(eng.Clusters()),
				"clusters_per_sec": float64(eng.Clusters()) * perSec(1, total),
			}
		},
	}, nil
}

// setupEngineApply times one full-operator MVM through the cluster
// pipeline, and derives ADC-conversion throughput from the engine's
// hardware counters over the timed window.
func setupEngineApply(p Preset) (*Instance, error) {
	plan, err := enginePlan(p)
	if err != nil {
		return nil, err
	}
	eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		return nil, err
	}
	xrng := rand.New(rand.NewSource(4))
	x := make([]float64, eng.Cols())
	for i := range x {
		x[i] = xrng.NormFloat64()
	}
	y := make([]float64, eng.Rows())
	return &Instance{
		Run: func() error {
			eng.Apply(y, x)
			return nil
		},
		// Drop warmup work from the counter window so conversions/sec
		// divides work actually done inside the timed region.
		BeforeTimed: func() { eng.TakeStats() },
		Metrics: func(total time.Duration) map[string]float64 {
			s := eng.TakeStats()
			return map[string]float64{
				"clusters":                float64(eng.Clusters()),
				"adc_conversions_per_sec": float64(s.Conversions) * perSec(1, total),
				"slices_per_sec":          float64(s.VectorSlicesApplied) * perSec(1, total),
			}
		},
	}, nil
}

// batchRHS is the multi-RHS batch width of the engine/apply/batch
// workload: large enough to keep every worker fork busy, small enough
// that the short preset stays fast.
const batchRHS = 8

// setupEngineApplyBatch times Engine.ApplyBatch over batchRHS
// right-hand sides with the full worker pool; samples are ns per RHS,
// directly comparable with engine/apply/serial (a batch that beats
// serial per-RHS time shows the fork pipeline paying off).
func setupEngineApplyBatch(p Preset) (*Instance, error) {
	plan, err := enginePlan(p)
	if err != nil {
		return nil, err
	}
	eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		return nil, err
	}
	xrng := rand.New(rand.NewSource(4))
	xs := make([][]float64, batchRHS)
	ys := make([][]float64, batchRHS)
	for k := range xs {
		xs[k] = make([]float64, eng.Cols())
		for i := range xs[k] {
			xs[k][i] = xrng.NormFloat64()
		}
		ys[k] = make([]float64, eng.Rows())
	}
	return &Instance{
		InnerOps: batchRHS,
		Run: func() error {
			eng.ApplyBatch(ys, xs)
			return nil
		},
		BeforeTimed: func() { eng.TakeStats() },
		Metrics: func(total time.Duration) map[string]float64 {
			s := eng.TakeStats()
			return map[string]float64{
				"clusters":                float64(eng.Clusters()),
				"batch":                   batchRHS,
				"adc_conversions_per_sec": float64(s.Conversions) * perSec(1, total),
				"rhs_per_sec":             float64(batchRHS) * perSec(p.Reps, total),
			}
		},
	}, nil
}

// setupEngineApplyInject times one injected Apply, the MVM of the
// Monte-Carlo device studies (Figs. 12/13), on the end-to-end
// benchmark's mc-inject operator: a 96-row banded SPD system blocked on
// the 512 substrate, single-bit TaOx cells at 3% programming error. The
// error streams are reseeded to the same point before every Apply, so
// each op makes the same draws; the preset does not size this workload.
func setupEngineApplyInject(p Preset) (*Instance, error) {
	spec := matgen.Spec{Name: "mc_spd_96", Rows: 96, NNZ: 96 * 13, SPD: true, Class: matgen.Banded,
		Band: 96, ExpSpread: 1, Seed: 4242, DiagMargin: 2}
	sub := blocking.Substrate{Sizes: []int{512}, MaxPad: core.MaxPadBits, Threshold: func(int) int { return 64 }}
	plan, err := blocking.Preprocess(spec.Generate(), sub)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Device.ProgError = 0.03
	eng, err := accel.NewEngine(plan, cfg, 1)
	if err != nil {
		return nil, err
	}
	xrng := rand.New(rand.NewSource(4))
	x := make([]float64, eng.Cols())
	for i := range x {
		x[i] = xrng.NormFloat64()
	}
	y := make([]float64, eng.Rows())
	return &Instance{
		Run: func() error {
			eng.ReseedErrors(0, 0)
			eng.Apply(y, x)
			return nil
		},
		BeforeTimed: func() { eng.TakeStats() },
		Metrics: func(total time.Duration) map[string]float64 {
			s := eng.TakeStats()
			return map[string]float64{
				"clusters":                float64(eng.Clusters()),
				"adc_conversions_per_sec": float64(s.Conversions) * perSec(1, total),
			}
		},
	}, nil
}

// solverSystem pins the CSR-backend solver system: a scaled catalog
// matrix (crystm03, SPD FEM) with Jacobi row scaling, the same
// preparation the paper's solver experiments use.
func solverSystem(p Preset) (*sparse.CSR, []float64, error) {
	spec, err := matgen.ByName("crystm03")
	if err != nil {
		return nil, nil, err
	}
	m := spec.GenerateScaled(p.SolverScale)
	if _, err := m.JacobiScale(true); err != nil {
		return nil, nil, err
	}
	return m, sparse.Ones(m.Rows()), nil
}

// setupCSRSolve times a full solve from x₀ = 0 per repetition on the
// CSR backend and reports iterations/sec. The iteration count is
// deterministic (bit-identical arithmetic, fixed matrix), so it doubles
// as the workload-drift sentinel for the solver benchmarks.
func setupCSRSolve(p Preset, method string) (*Instance, error) {
	m, rhs, err := solverSystem(p)
	if err != nil {
		return nil, err
	}
	op := solver.CSROperator{M: m}
	opt := solver.Options{Tol: 1e-8, MaxIter: 5000}
	solve := func() (*solver.Result, error) {
		switch method {
		case "cg":
			return solver.CG(op, rhs, opt)
		case "bicgstab":
			return solver.BiCGSTAB(op, rhs, opt)
		case "bicg":
			return solver.BiCG(op, rhs, opt)
		case "gmres":
			return solver.GMRES(op, rhs, opt)
		}
		return nil, fmt.Errorf("unknown method %q", method)
	}
	var last *solver.Result
	return &Instance{
		Run: func() error {
			res, err := solve()
			if err != nil {
				return err
			}
			if !res.Converged {
				return fmt.Errorf("%s did not converge in %d iterations (residual %.3g)",
					method, res.Iterations, res.Residual)
			}
			last = res
			return nil
		},
		Metrics: func(total time.Duration) map[string]float64 {
			return map[string]float64{
				"nnz":                float64(m.NNZ()),
				"iterations":         float64(last.Iterations),
				"iterations_per_sec": float64(last.Iterations) * perSec(p.Reps, total),
			}
		},
	}, nil
}

// setupAccelSolve times CG with the functional accelerator as the
// operator — the paper's headline configuration — and reports both
// solver throughput and hardware-counter throughput for the solve.
// The engine is half the apply-benchmark size and the tolerance is
// 1e-6: a full solve runs every repetition, and this workload would
// otherwise dwarf the rest of the short preset on a slow CI runner.
func setupAccelSolve(p Preset) (*Instance, error) {
	half := p
	half.EngineRows = p.EngineRows / 2
	plan, err := enginePlan(half)
	if err != nil {
		return nil, err
	}
	eng, err := accel.NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		return nil, err
	}
	rhs := sparse.Ones(eng.Rows())
	opt := solver.Options{Tol: 1e-6, MaxIter: 500}
	var last *solver.Result
	return &Instance{
		Run: func() error {
			res, err := solver.CG(eng, rhs, opt)
			if err != nil {
				return err
			}
			if !res.Converged {
				return fmt.Errorf("accel cg did not converge in %d iterations (residual %.3g)",
					res.Iterations, res.Residual)
			}
			last = res
			return nil
		},
		BeforeTimed: func() { eng.TakeStats() },
		Metrics: func(total time.Duration) map[string]float64 {
			s := eng.TakeStats()
			return map[string]float64{
				"clusters":                float64(eng.Clusters()),
				"iterations":              float64(last.Iterations),
				"iterations_per_sec":      float64(last.Iterations) * perSec(p.Reps, total),
				"adc_conversions_per_sec": float64(s.Conversions) * perSec(1, total),
			}
		},
	}, nil
}

// setupAccelRefine times mixed-precision iterative refinement on the
// same system as solve/accel/cg: the inner CG runs on a reduced-slice
// engine (8-bit significands, several times fewer ADC conversions per
// MVM) and the fp64 outer loop recomputes true residuals on the CSR
// path. Its adc_conversions_per_sec is directly comparable with
// solve/accel/cg — the refinement claim is more residual reduction per
// conversion, not per second.
func setupAccelRefine(p Preset) (*Instance, error) {
	half := p
	half.EngineRows = p.EngineRows / 2
	plan, err := enginePlan(half)
	if err != nil {
		return nil, err
	}
	eng, err := accel.NewEngine(plan, core.ReducedSliceConfig(8), 1)
	if err != nil {
		return nil, err
	}
	m := engineSpec(half).Generate()
	ref := solver.CSROperator{M: m}
	rhs := sparse.Ones(eng.Rows())
	opt := solver.RefineOptions{Tol: 1e-6, MaxOuter: 20, Inner: solver.Options{MaxIter: 500}}
	var last *solver.RefineResult
	return &Instance{
		Run: func() error {
			res, err := solver.Refine(ref, eng, rhs, opt)
			if err != nil {
				return err
			}
			if !res.Converged {
				return fmt.Errorf("accel refine did not converge in %d sweeps (residual %.3g)",
					res.Outer, res.Residual)
			}
			last = res
			return nil
		},
		BeforeTimed: func() { eng.TakeStats() },
		Metrics: func(total time.Duration) map[string]float64 {
			s := eng.TakeStats()
			return map[string]float64{
				"clusters":                float64(eng.Clusters()),
				"outer":                   float64(last.Outer),
				"iterations":              float64(last.InnerIterations),
				"iterations_per_sec":      float64(last.InnerIterations) * perSec(p.Reps, total),
				"adc_conversions_per_sec": float64(s.Conversions) * perSec(1, total),
			}
		},
	}, nil
}

// cacheMatrix pins the serving-layer workload matrix.
func cacheMatrix(p Preset) *sparse.CSR {
	spec := matgen.Spec{
		Name: "bench_serve", Rows: p.CacheRows, NNZ: p.CacheRows * 12,
		SPD: true, Class: matgen.Banded, Band: 24,
		ExpSpread: 8, Seed: 42, DiagMargin: 0.1,
	}
	return spec.Generate()
}

// setupCacheHit times the steady-state request cost once an engine is
// resident: fingerprint, map lookup, pool lease. A single hit is tens
// of microseconds, far below per-sample timer noise, so each repetition
// performs HitBatch acquisitions and samples are ns per acquisition.
func setupCacheHit(p Preset) (*Instance, error) {
	m := cacheMatrix(p)
	c := serve.NewCache(serve.CacheConfig{}, core.DefaultClusterConfig(), 1)
	ctx := context.Background()
	l, err := c.Acquire(ctx, m) // program once; every timed acquire hits
	if err != nil {
		return nil, err
	}
	l.Release()
	return &Instance{
		InnerOps: p.HitBatch,
		Run: func() error {
			for i := 0; i < p.HitBatch; i++ {
				l, err := c.Acquire(ctx, m)
				if err != nil {
					return err
				}
				l.Release()
			}
			return nil
		},
		Metrics: func(total time.Duration) map[string]float64 {
			st := c.Stats()
			if st.Programmings != 1 {
				// A hit benchmark that programmed is measuring the wrong
				// path; surface it as a drifted deterministic metric.
				return map[string]float64{"programmings": float64(st.Programmings)}
			}
			return map[string]float64{
				"hits_per_sec": float64(p.HitBatch) * perSec(p.Reps, total),
			}
		},
	}, nil
}

// setupCacheMiss times the cold path: every repetition perturbs one
// matrix value so the fingerprint is new, forcing a full block + program
// cycle through the cache's singleflight.
func setupCacheMiss(p Preset) (*Instance, error) {
	m := cacheMatrix(p)
	base := m.Vals[0]
	c := serve.NewCache(serve.CacheConfig{MaxClusters: 1 << 30}, core.DefaultClusterConfig(), 1)
	ctx := context.Background()
	seq := 0
	return &Instance{
		Run: func() error {
			seq++
			m.Vals[0] = base + float64(seq)*1e-9
			l, err := c.Acquire(ctx, m)
			if err != nil {
				return err
			}
			l.Release()
			return nil
		},
		Metrics: func(total time.Duration) map[string]float64 {
			return map[string]float64{
				"programmings_per_sec": perSec(p.Reps, total),
			}
		},
	}, nil
}

// perSec converts "count events over total" into events/sec, guarding
// the degenerate zero-duration case.
func perSec(count int, total time.Duration) float64 {
	s := total.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(count) / s
}
