package solver

import (
	"fmt"

	"memsci/internal/sparse"
)

// BatchOperator applies one linear operator to a batch of vectors:
// ys[k] = A·xs[k]. The accelerator engine satisfies it with
// accel.Engine.ApplyBatch (pipelined over the engine and cached forks of
// one programmed matrix), and CSROperator satisfies it with a serial loop —
// so the lockstep batch solver below runs unchanged on either backend.
type BatchOperator interface {
	Operator
	ApplyBatch(ys, xs [][]float64)
}

// ApplyBatch applies the CSR matrix to each vector in turn, making
// CSROperator a BatchOperator (the reference path for CGBatch).
func (o CSROperator) ApplyBatch(ys, xs [][]float64) {
	for k := range xs {
		o.M.MulVec(ys[k], xs[k])
	}
}

// Tee fans one solver Monitor callback out to every non-nil sink — the
// bridge that lets a single solve feed both the trace recorder and a
// job's SSE event log. It returns nil when every sink is nil, preserving
// the solver's nil-Monitor fast path.
func Tee(ms ...Monitor) Monitor {
	sinks := make([]Monitor, 0, len(ms))
	for _, m := range ms {
		if m != nil {
			sinks = append(sinks, m)
		}
	}
	switch len(sinks) {
	case 0:
		return nil
	case 1:
		return sinks[0]
	}
	return func(k int, rn float64) {
		for _, m := range sinks {
			m(k, rn)
		}
	}
}

// CGBatch solves A·x = bs[k] for every right-hand side in lockstep: each
// outer iteration issues one BatchOperator.ApplyBatch over the still-
// active systems' direction vectors, then advances every system's scalar
// recurrences independently. Per system it is the identical Hestenes-
// Stiefel iteration as CG — same update order, same convergence and
// breakdown tests — so each result is bit-identical to a serial CG run
// on the same operator; what batching changes is only that the
// accelerator sees k MVM requests per iteration against one programmed
// matrix (the Engine.ApplyBatch fan-out) instead of k separate solves.
// Systems that converge (or break down) drop out of the batch; the loop
// ends when none remain or the shared iteration cap is reached.
//
// Tol, MaxIter, Diag, Ctx, and RecordResiduals come from opt and are
// shared by every system — callers batch only compatible solves.
// opt.Monitor is ignored; monitors[k] (when monitors is non-nil) observes
// system k's iterations. On context cancellation the partial results are
// returned alongside the error, like CG.
func CGBatch(a BatchOperator, bs [][]float64, opt Options, monitors []Monitor) ([]*Result, error) {
	if monitors != nil && len(monitors) != len(bs) {
		return nil, fmt.Errorf("solver: CGBatch with %d monitors for %d systems", len(monitors), len(bs))
	}
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: operator %dx%d", ErrDimension, a.Rows(), a.Cols())
	}
	n := a.Rows()
	for k, b := range bs {
		if len(b) != n {
			return nil, fmt.Errorf("%w: operator %dx%d, bs[%d] %d", ErrDimension, n, n, k, len(b))
		}
	}
	if err := checkDiag(opt.Diag, n); err != nil {
		return nil, err
	}
	invDiag, err := invertDiag(opt.Diag)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(bs))
	active := make([]*cgSystem, 0, len(bs))
	for k, b := range bs {
		sys := &cgSystem{res: &Result{X: make([]float64, n)}, invDiag: invDiag}
		if monitors != nil {
			sys.monitor = monitors[k]
		}
		results[k] = sys.res
		sys.normB = sparse.Norm2(b)
		if sys.normB == 0 {
			sys.res.Converged = true
			continue
		}
		sys.start(b)
		active = append(active, sys)
	}

	// Reused batch argument slices, compacted to the active set each
	// iteration.
	xs := make([][]float64, 0, len(active))
	ys := make([][]float64, 0, len(active))

	limit := maxIter(opt, n)
	for k := 0; k < limit && len(active) > 0; k++ {
		if err := checkCtx(opt, k); err != nil {
			return results, err
		}
		xs, ys = xs[:0], ys[:0]
		for _, sys := range active {
			xs = append(xs, sys.p)
			ys = append(ys, sys.ap)
		}
		a.ApplyBatch(ys, xs)

		still := active[:0]
		for _, sys := range active {
			if !sys.step(k+1, &opt) {
				still = append(still, sys)
			}
		}
		// Zero dropped tail pointers so finished systems' vectors are
		// collectable on long remaining runs.
		for i := len(still); i < len(active); i++ {
			active[i] = nil
		}
		active = still
	}
	return results, nil
}
