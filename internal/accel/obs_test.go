package accel

import (
	"testing"

	"memsci/internal/core"
	"memsci/internal/obs"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// The telemetry recorder differences Engine.HWCounters once per solver
// iteration and writes the deltas onto the solve span; they must sum
// exactly to the engine's end-of-solve stats window (TakeStats), or
// per-iteration hardware attribution is lying about totals.
func TestRecorderHWDeltasSumToTakeStats(t *testing.T) {
	m, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.TakeStats() // open a fresh window, like the serving layer does

	span := obs.NewSpan("test", "solve")
	rec := obs.NewRecorder(span, eng.HWCounters)
	opt := solver.Options{Tol: 1e-9, Monitor: rec.Observe}
	b := sparse.Ones(m.Rows())
	res, err := solver.CG(eng, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations == 0 {
		t.Fatalf("solve did not converge: %+v", res)
	}
	rec.Finish()
	if len(span.Samples) != res.Iterations {
		t.Fatalf("%d samples for %d iterations", len(span.Samples), res.Iterations)
	}

	window := eng.TakeStats()
	want := window.HWCounters()
	var got obs.HWCounters
	for i, sm := range span.Samples {
		// Every iteration performed hardware work (CG does one Apply per
		// iteration on this path).
		if sm.HW == nil || sm.HW.ADCConversions == 0 {
			t.Fatalf("iteration %d carries no hardware delta: %+v", i+1, sm.HW)
		}
		got.Add(*sm.HW)
	}
	if got != want {
		t.Errorf("per-iteration deltas sum %+v != TakeStats window %+v", got, want)
	}
	if want.Slices == 0 || want.ADCConversions == 0 {
		t.Errorf("degenerate window %+v", want)
	}
}
