package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"memsci/internal/accel"
	"memsci/internal/core"
	"memsci/internal/serve"
	"memsci/internal/solver"
	"memsci/internal/sparse"
)

// rhs is a seeded right-hand side with standard normal entries.
func rhs(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	return b
}

// matrixMarket renders m as MatrixMarket text (%.17g, so it parses back
// to the same values).
func matrixMarket(m *sparse.CSR) string {
	var sb strings.Builder
	_ = sparse.WriteMatrixMarket(&sb, m, "") // a strings.Builder never fails
	return sb.String()
}

var errNotConverged = errors.New("solver reported no convergence")

// checkAnswer recomputes ‖b − A·x‖/‖b‖ on the benchmark's own copy of A.
// wrong is set when an answer claimed convergence but fails the check.
func checkAnswer(m *sparse.CSR, x, b []float64, converged bool, limit float64) (wrong bool, err error) {
	if !converged {
		return false, errNotConverged
	}
	if len(x) != m.Rows() {
		return true, fmt.Errorf("answer has %d entries, the system %d rows", len(x), m.Rows())
	}
	r := sparse.Norm2(sparse.Residual(m, x, b)) / sparse.Norm2(b)
	if !(r <= limit) {
		return true, fmt.Errorf("relative residual %.3g exceeds %.3g", r, limit)
	}
	return false, nil
}

// answer returns x, or a perturbed copy when the self-test's corrupt hook
// selects operation idx.
func (o options) answer(idx int64, x []float64) []float64 {
	if o.corrupt == nil || !o.corrupt(idx) || len(x) == 0 {
		return x
	}
	y := append([]float64(nil), x...)
	y[0] += 1 + math.Abs(y[0])
	return y
}

// parseReplay repeats the server's parse of a solve request body: JSON
// decode, ReadMatrixMarket, ToCSR.
func parseReplay(tr *opTrace, parent int, body []byte) (*sparse.CSR, int, error) {
	p := tr.begin(parent, "sparse.parse")
	defer tr.end(p)
	j := tr.begin(p, "json.Decode")
	var req serve.SolveRequest
	err := json.Unmarshal(body, &req)
	tr.end(j)
	if err != nil {
		return nil, p, fmt.Errorf("replay decode: %w", err)
	}
	r := tr.begin(p, "sparse.ReadMatrixMarket")
	coo, _, err := sparse.ReadMatrixMarket(strings.NewReader(req.Matrix))
	tr.end(r)
	if err != nil {
		return nil, p, fmt.Errorf("replay parse: %w", err)
	}
	c := tr.begin(p, "sparse.ToCSR")
	m := coo.ToCSR()
	tr.end(c)
	return m, p, nil
}

// replayed is the outcome of a direct replay of one solve.
type replayed struct {
	x                     []float64
	iters, outer, applies int
	stats                 core.ComputeStats
	span                  int
}

// replaySolve repeats the server's solve on eng over a timedOp, between
// the two TakeStats calls the server makes. refine selects solver.Refine
// (inner CG on eng, fp64 outer loop on m) as mode:refine does.
func replaySolve(tr *opTrace, parent int, eng *accel.Engine, m *sparse.CSR, b []float64, refine bool, tol float64, maxIter int) (replayed, error) {
	ts := tr.begin(parent, "accel.TakeStats")
	eng.TakeStats()
	tr.end(ts)
	var r replayed
	op := &timedOp{eng: eng, tr: tr}
	if refine {
		r.span = tr.begin(parent, "solver.Refine")
		op.parent = r.span
		rr, err := solver.Refine(solver.CSROperator{M: m}, op, b, solver.RefineOptions{Tol: tol, Method: "cg"})
		tr.end(r.span)
		if err != nil {
			return r, fmt.Errorf("replay refine: %w", err)
		}
		r.x, r.iters, r.outer = rr.X, rr.InnerIterations, rr.Outer
	} else {
		r.span = tr.begin(parent, "solver.CG")
		op.parent = r.span
		res, err := solver.CG(op, b, solver.Options{Tol: tol, MaxIter: maxIter})
		tr.end(r.span)
		if err != nil {
			return r, fmt.Errorf("replay cg: %w", err)
		}
		r.x, r.iters = res.X, res.Iterations
	}
	ts = tr.begin(parent, "accel.TakeStats")
	r.stats = eng.TakeStats()
	tr.end(ts)
	r.applies = op.applies
	return r, nil
}

// solveLedger fills the solver rows of a traced operation's ledger.
func solveLedger(tr *opTrace, ti *tracedInfo, r replayed) {
	applyMS, n := tr.childMS(r.span, "accel.Apply")
	ti.ledger["solver.self"] = ledgerCell{ms: tr.selfMS(r.span), calls: 1}
	ti.ledger["accel.apply"] = ledgerCell{ms: applyMS, calls: n}
	ti.applies, ti.stats, ti.outer = r.applies, r.stats, r.outer
}

// warmUp runs perClient operations on each of clients callers at once,
// from indices of their own (negative, apart from the measured sequence).
func warmUp(clients, perClient int, do func(int64) outcome) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if oc := do(-1 - int64(c*perClient+j)); !oc.ok {
					errs[c] = fmt.Errorf("warm-up operation: %w", oc.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
