package montecarlo

import (
	"fmt"
	"math"
	"math/rand"

	"memsci/internal/accel"
	"memsci/internal/core"
	"memsci/internal/device"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// ScenarioConfig parameterizes a reliability scenario: one engine is
// programmed and then aged through a ladder of time steps, probing MVM
// accuracy and AN-code detection at every step. With a Policy armed, the
// scenario demonstrates (or refutes) closed-loop self-healing: retention
// drift degrades accuracy, degradation raises the windowed AN detection
// rate, the policy re-programs the offending clusters, and accuracy
// recovers — all deterministically from Seed.
type ScenarioConfig struct {
	// Device is the cell model under test (typically with Faults set).
	Device device.Params
	// Seed drives the engine's error sampler and the probe vectors.
	Seed int64
	// Steps is the number of aging steps; StepSeconds is the scenario
	// time each step advances.
	Steps       int
	StepSeconds float64
	// ProbesPerStep is the number of right-hand sides batched per step.
	// The same probe vectors are reused at every step, so deviation
	// changes measure device degradation, not probe randomness.
	ProbesPerStep int
	// Policy, when non-nil, arms the engine's online refresh policy.
	Policy *accel.RefreshPolicy
}

// ScenarioStep is the measurement at one point of the aging ladder.
type ScenarioStep struct {
	// Step is the 0-based step index; TimeSeconds is the engine clock
	// when the step's probes ran.
	Step        int
	TimeSeconds float64
	// MaxRel and MeanRel are the probe deviations versus the exact CSR
	// products, as in ProbeResult.
	MaxRel, MeanRel float64
	// DetectedRate is the AN-code detection rate over this step's
	// decodes; Uncorrectable counts this step's uncorrectable decodes.
	DetectedRate  float64
	Uncorrectable uint64
	// Clamps counts this step's saturated (clamped) ADC readouts.
	Clamps uint64
	// Refreshes counts cluster re-programmings the policy performed
	// during this step.
	Refreshes uint64
}

// ScenarioResult is a full reliability scenario run.
type ScenarioResult struct {
	Steps []ScenarioStep
	// Refresh is the total self-healing work the policy performed.
	Refresh accel.RefreshStats
	// CleanRel and FinalRel are the first and last steps' MaxRel — the
	// accuracy before aging and after the full ladder (post-refresh, if
	// a policy was armed).
	CleanRel, FinalRel float64
	// FinalSolveRel is the true relative residual of a CG solve run on
	// the aged engine after the ladder; CleanSolveRel is the same solve
	// on a freshly programmed engine, for reference.
	FinalSolveRel, CleanSolveRel float64
}

// RunScenario ages one programmed engine through cfg.Steps time steps,
// probing accuracy and error-detection at each, and finishes with a CG
// solve on the aged engine checked against the true residual. The whole
// run is a deterministic function of the configuration: engines,
// per-RHS error streams and refresh decisions all derive from Seed.
func (s *Study) RunScenario(sc ScenarioConfig) (*ScenarioResult, error) {
	if sc.Steps <= 0 {
		return nil, fmt.Errorf("montecarlo: Steps must be positive, got %d", sc.Steps)
	}
	if sc.ProbesPerStep <= 0 {
		return nil, fmt.Errorf("montecarlo: ProbesPerStep must be positive, got %d", sc.ProbesPerStep)
	}
	if sc.StepSeconds <= 0 || math.IsNaN(sc.StepSeconds) {
		return nil, fmt.Errorf("montecarlo: StepSeconds must be positive, got %v", sc.StepSeconds)
	}
	cfg := core.DefaultClusterConfig()
	cfg.Device = sc.Device
	cfg.InjectErrors = true
	eng, err := accel.NewEngine(s.Plan, cfg, sc.Seed)
	if err != nil {
		return nil, err
	}
	if s.Parallelism > 0 {
		eng.Parallelism = s.Parallelism
	}
	eng.SetRefreshPolicy(sc.Policy)

	// Fixed probe batch, same derivation as Probe.
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5ca1ab1e))
	xs := make([][]float64, sc.ProbesPerStep)
	ys := make([][]float64, sc.ProbesPerStep)
	for k := range xs {
		xs[k] = make([]float64, s.Matrix.Cols())
		for i := range xs[k] {
			xs[k][i] = rng.NormFloat64()
		}
		ys[k] = make([]float64, s.Matrix.Rows())
	}

	res := &ScenarioResult{Steps: make([]ScenarioStep, 0, sc.Steps)}
	exact := make([]float64, s.Matrix.Rows())
	for step := 0; step < sc.Steps; step++ {
		if step > 0 {
			eng.AdvanceTime(sc.StepSeconds)
		}
		before := eng.Stats()
		refBefore := eng.RefreshStats()
		eng.ApplyBatch(ys, xs)
		after := eng.Stats()
		anWin := after.AN.Sub(before.AN)

		st := ScenarioStep{
			Step:          step,
			TimeSeconds:   eng.Now(),
			DetectedRate:  anWin.DetectedRate(),
			Uncorrectable: anWin.Uncorrectable,
			Clamps:        after.SaturationClamps - before.SaturationClamps,
			Refreshes:     eng.RefreshStats().Refreshes - refBefore.Refreshes,
		}
		var sum float64
		var rows int
		for k := range xs {
			s.Matrix.MulVec(exact, xs[k])
			for i := range exact {
				rel := math.Abs(ys[k][i]-exact[i]) / math.Max(1, math.Abs(exact[i]))
				if rel > st.MaxRel {
					st.MaxRel = rel
				}
				sum += rel
				rows++
			}
		}
		if rows > 0 {
			st.MeanRel = sum / float64(rows)
		}
		res.Steps = append(res.Steps, st)
	}
	res.Refresh = eng.RefreshStats()
	res.CleanRel = res.Steps[0].MaxRel
	res.FinalRel = res.Steps[len(res.Steps)-1].MaxRel

	// Final CG solve on the aged engine, judged by the true residual on
	// the exact matrix (the recurrence can lie under analog errors).
	b := sparse.Ones(s.Matrix.Rows())
	if res.FinalSolveRel, err = s.trueSolveRel(eng, b); err != nil {
		return nil, err
	}
	// Reference: the same solve on a freshly programmed engine.
	clean, err := accel.NewEngine(s.Plan, cfg, sc.Seed)
	if err != nil {
		return nil, err
	}
	if res.CleanSolveRel, err = s.trueSolveRel(clean, b); err != nil {
		return nil, err
	}
	return res, nil
}

// trueSolveRel runs CG on the operator and returns the true relative
// residual of the returned iterate on the exact matrix.
func (s *Study) trueSolveRel(op solver.Operator, b []float64) (float64, error) {
	r, err := solver.CG(op, b, solver.Options{Tol: s.Tol, MaxIter: s.MaxIter})
	if err != nil {
		return 0, err
	}
	return sparse.Norm2(sparse.Residual(s.Matrix, r.X, b)) / sparse.Norm2(b), nil
}
