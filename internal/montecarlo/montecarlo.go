// Package montecarlo runs the device-sensitivity studies of Figures 12
// and 13: repeated CG solves over the functional (bit-exact) accelerator
// with the device-error model enabled, reporting iteration counts
// normalized to a reference configuration. It is the library behind
// `experiments -run fig12|fig13`.
package montecarlo

import (
	"fmt"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/device"
	"memsci/internal/matgen"
	"memsci/internal/parallel"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// Study describes one sensitivity experiment.
type Study struct {
	// Matrix and Plan define the SPD system under test.
	Matrix *sparse.CSR
	Plan   *blocking.Plan
	// Tol is the convergence tolerance; MaxIter caps non-converging runs
	// (reported as MaxIter iterations).
	Tol     float64
	MaxIter int
	// Trials per configuration (the paper uses 100). Baseline and Sweep
	// reject Trials <= 0 with an error.
	Trials int
	// Seed is the base seed; trial t of any configuration uses
	// Seed + 1000·t (+7 for non-baseline), so configurations face
	// comparable error draws.
	Seed int64
	// Parallelism bounds the worker goroutines trials run on, and the
	// workers of the probe and scenario engines' batches; <= 0 selects
	// runtime.GOMAXPROCS. Trials are independent — each builds its own
	// seeded engine — and per-trial results are reduced in trial order,
	// so parallel sweeps are deterministic.
	Parallelism int
}

// DefaultStudy builds the standard small SPD system: a sparse band wide
// enough to exercise 512-class column populations (few ON cells per
// column — the sparse-matrix operating point of §IV-E — against a dense
// input vector with its large leaking OFF-cell population).
func DefaultStudy(trials int, seed int64) (*Study, error) {
	spec := matgen.Spec{
		Name: "mc_spd", Rows: 256, NNZ: 256 * 13, SPD: true, Class: matgen.Banded,
		Band: 256, ExpSpread: 6, Seed: 4242, DiagMargin: 0.15,
	}
	m := spec.Generate()
	sub := blocking.Substrate{
		Sizes:     []int{512},
		MaxPad:    core.MaxPadBits,
		Threshold: func(int) int { return 64 },
	}
	plan, err := blocking.Preprocess(m, sub)
	if err != nil {
		return nil, err
	}
	return &Study{
		Matrix: m, Plan: plan,
		Tol: 1e-6, MaxIter: 300,
		Trials: trials, Seed: seed,
	}, nil
}

// Stats summarizes one configuration's trials.
type Stats struct {
	Label          string
	MinIters       int
	MaxIters       int
	MeanIters      float64
	Failed         int // trials that hit MaxIter or converged spuriously
	Min, Mean, Max float64
	FailedOfTrials string
}

// Run solves the study system once with the given device and seed. The
// result is validated against the *true* residual on the exact matrix:
// analog errors can corrupt CG's recurrence into claiming convergence it
// did not achieve, which hardware discovers at the final check.
func (s *Study) Run(dev device.Params, seed int64) (int, error) {
	cfg := core.DefaultClusterConfig()
	cfg.Device = dev
	cfg.InjectErrors = true
	eng, err := accel.NewEngine(s.Plan, cfg, seed)
	if err != nil {
		return 0, err
	}
	b := sparse.Ones(s.Matrix.Rows())
	res, err := solver.CG(eng, b, solver.Options{Tol: s.Tol, MaxIter: s.MaxIter})
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return s.MaxIter, nil
	}
	true_ := sparse.Norm2(sparse.Residual(s.Matrix, res.X, b)) / sparse.Norm2(b)
	if true_ > 10*s.Tol {
		return s.MaxIter, nil
	}
	return res.Iterations, nil
}

// trials runs all of the study's trials for one configuration
// concurrently — safe because every trial builds its own seeded engine —
// and returns the per-trial iteration counts indexed by trial number, so
// callers reduce them in deterministic trial order. seedOff is the
// configuration's seed offset (0 for the baseline, 7 for sweeps).
func (s *Study) trials(dev device.Params, seedOff int64) ([]int, error) {
	if s.Trials <= 0 {
		return nil, fmt.Errorf("montecarlo: Trials must be positive, got %d", s.Trials)
	}
	its := make([]int, s.Trials)
	errs := make([]error, s.Trials)
	parallel.For(s.Trials, s.Parallelism, func(t int) {
		its[t], errs[t] = s.Run(dev, s.Seed+int64(1000*t)+seedOff)
	})
	for _, err := range errs { // first failing trial, by trial index
		if err != nil {
			return nil, err
		}
	}
	return its, nil
}

// Baseline measures the reference configuration's mean iteration count.
// It errors on Trials <= 0.
func (s *Study) Baseline(dev device.Params) (float64, error) {
	its, err := s.trials(dev, 0)
	if err != nil {
		return 0, err
	}
	sum := 0
	for _, it := range its {
		sum += it
	}
	mean := float64(sum) / float64(s.Trials)
	if mean == 0 {
		return 0, fmt.Errorf("montecarlo: baseline did not iterate")
	}
	return mean, nil
}

// Sweep measures one configuration against a baseline mean, returning
// min/mean/max normalized iteration counts. It errors on Trials <= 0
// (previously the MinIters = 1<<30 sentinel leaked and the means were
// NaN).
func (s *Study) Sweep(label string, dev device.Params, baseMean float64) (Stats, error) {
	st := Stats{Label: label, MinIters: 1 << 30}
	its, err := s.trials(dev, 7)
	if err != nil {
		return st, err
	}
	sum := 0
	for _, it := range its {
		if it >= s.MaxIter {
			st.Failed++
		}
		if it < st.MinIters {
			st.MinIters = it
		}
		if it > st.MaxIters {
			st.MaxIters = it
		}
		sum += it
	}
	st.MeanIters = float64(sum) / float64(s.Trials)
	st.Min = float64(st.MinIters) / baseMean
	st.Mean = st.MeanIters / baseMean
	st.Max = float64(st.MaxIters) / baseMean
	st.FailedOfTrials = fmt.Sprintf("%d/%d", st.Failed, s.Trials)
	return st, nil
}
