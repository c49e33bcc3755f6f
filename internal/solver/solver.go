// Package solver implements the Krylov-subspace iterative methods the
// accelerator targets (§II-B, §VI): conjugate gradient (CG) for symmetric
// positive definite systems, BiCG and BiCG-STAB for nonsymmetric systems,
// and restarted GMRES. Solvers are written against the Operator
// interface, so the identical algorithm runs over a plain CSR matrix, the
// accelerator's functional engine, or an error-injected engine — which is
// how the paper's "converges in the same number of iterations" claim
// (§VII-C) and the Monte-Carlo sensitivity studies (Figures 12-13) are
// evaluated.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"

	"memsci/internal/sparse"
)

// Operator is a linear operator y = A·x.
type Operator interface {
	Rows() int
	Cols() int
	Apply(y, x []float64)
}

// TransposeOperator additionally applies y = Aᵀ·x (needed by BiCG).
type TransposeOperator interface {
	Operator
	ApplyT(y, x []float64)
}

// CSROperator adapts a CSR matrix.
type CSROperator struct{ M *sparse.CSR }

// Rows returns the operator's row count.
func (o CSROperator) Rows() int { return o.M.Rows() }

// Cols returns the operator's column count.
func (o CSROperator) Cols() int { return o.M.Cols() }

// Apply computes y = A·x.
func (o CSROperator) Apply(y, x []float64) { o.M.MulVec(y, x) }

// ApplyT computes y = Aᵀ·x.
func (o CSROperator) ApplyT(y, x []float64) { o.M.MulVecT(y, x) }

// Options controls a solve.
type Options struct {
	// Tol is the relative residual tolerance ε: stop when
	// ‖b − A·x‖ ≤ ε·‖b‖ (§II-B).
	Tol float64
	// MaxIter caps iterations (0 = 10·n).
	MaxIter int
	// RecordResiduals stores the residual norm history in the result.
	RecordResiduals bool
	// Diag enables Jacobi (diagonal) preconditioning for CG when
	// non-nil: it must hold the matrix diagonal.
	Diag []float64
	// Restart is the GMRES restart length (0 = 30).
	Restart int
	// Ctx, when non-nil, is polled once per iteration: the solve returns
	// the partial result so far together with an error wrapping the
	// context's error (distinguishable via errors.Is against
	// context.Canceled / context.DeadlineExceeded) as soon as the
	// context is done. Nil preserves the historical run-to-completion
	// behavior.
	Ctx context.Context
	// Monitor, when non-nil, is invoked inline exactly once per counted
	// iteration — every time Result.Iterations advances — with the
	// 1-based iteration number and the best-known relative residual at
	// that point. It is the telemetry seam: the obs package's Recorder
	// snapshots wall-clock and hardware-counter deltas from it. A nil
	// Monitor costs one predictable branch per iteration.
	Monitor Monitor
}

// Monitor observes one solver iteration. It runs on the solving
// goroutine; a slow monitor slows the solve.
type Monitor func(iteration int, residual float64)

// DefaultOptions returns ε = 1e-8 with an iteration cap of 10·n.
func DefaultOptions() Options { return Options{Tol: 1e-8} }

// Result reports a solve.
type Result struct {
	X          []float64
	Iterations int
	Converged  bool
	// Residual is the final relative residual ‖b−Ax‖/‖b‖.
	Residual  float64
	Residuals []float64
	// Breakdown is set when the method hit a numerical breakdown
	// (e.g. ρ = 0 in BiCG-STAB) before converging.
	Breakdown bool
}

// ErrDimension is returned when operator and vector shapes disagree.
var ErrDimension = errors.New("solver: dimension mismatch")

func checkDims(a Operator, b []float64) error {
	if a.Rows() != a.Cols() || a.Rows() != len(b) {
		return fmt.Errorf("%w: operator %dx%d, b %d", ErrDimension, a.Rows(), a.Cols(), len(b))
	}
	return nil
}

func maxIter(opt Options, n int) int {
	if opt.MaxIter > 0 {
		return opt.MaxIter
	}
	return 10 * n
}

// checkCtx polls the optional cancellation context once per iteration.
func checkCtx(opt Options, iters int) error {
	if opt.Ctx == nil {
		return nil
	}
	select {
	case <-opt.Ctx.Done():
		return fmt.Errorf("solver: stopped after %d iterations: %w", iters, opt.Ctx.Err())
	default:
		return nil
	}
}

// fire invokes the optional per-iteration monitor. Each solver calls it
// (CG and CGBatch call their monitor from cgSystem.step) exactly once per
// Result.Iterations increment, so a monitor sees every counted iteration
// — including the one a breakdown or early convergence exit ends on.
func (opt *Options) fire(k int, rn float64) {
	if opt.Monitor != nil {
		opt.Monitor(k, rn)
	}
}

// checkDiag validates the Jacobi preconditioner vector for the methods
// that support it (CG, BiCG-STAB): when set it must match the system
// dimension exactly — a short diagonal would silently precondition with
// zeros and a long one would corrupt memory in the scaling loops.
func checkDiag(diag []float64, n int) error {
	if diag != nil && len(diag) != n {
		return fmt.Errorf("%w: Jacobi diagonal length %d, system %d", ErrDimension, len(diag), n)
	}
	return nil
}

// CG solves A·x = b for SPD A by the conjugate gradient method
// (Hestenes & Stiefel), optionally Jacobi-preconditioned.
func CG(a Operator, b []float64, opt Options) (*Result, error) {
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	n := len(b)
	if err := checkDiag(opt.Diag, n); err != nil {
		return nil, err
	}
	s := cgSystem{res: &Result{X: make([]float64, n)}, monitor: opt.Monitor}
	s.normB = sparse.Norm2(b)
	if s.normB == 0 {
		s.res.Converged = true
		return s.res, nil
	}
	var err error
	if s.invDiag, err = invertDiag(opt.Diag); err != nil {
		return nil, err
	}
	s.start(b)

	limit := maxIter(opt, n)
	for k := 0; k < limit; k++ {
		if err := checkCtx(opt, s.res.Iterations); err != nil {
			return s.res, err
		}
		a.Apply(s.ap, s.p)
		if s.step(k+1, &opt) {
			break
		}
	}
	return s.res, nil
}

// cgSystem is the state of one conjugate-gradient system: the
// Hestenes-Stiefel recurrence that CG runs once and CGBatch runs per
// right-hand side.
type cgSystem struct {
	res     *Result
	monitor Monitor
	invDiag []float64 // Jacobi inverse diagonal; nil = unpreconditioned
	r, z, p []float64
	ap      []float64 // A·p, written by the caller before each step
	rz      float64
	normB   float64
}

// start sets up the recurrence from x₀ = 0: r = b, z = M⁻¹·r, p = z.
func (s *cgSystem) start(b []float64) {
	s.r = sparse.CopyVec(b)
	s.z = make([]float64, len(b))
	precondition(s.z, s.r, s.invDiag)
	s.p = sparse.CopyVec(s.z)
	s.ap = make([]float64, len(b))
	s.rz = sparse.Dot(s.r, s.z)
}

// step finishes iteration iter once s.ap holds A·p: p·Ap, α, the x and
// r updates, the residual (recorded and passed to the monitor), the
// convergence test, then the preconditioner, β and the new direction.
// It reports whether the system is done (converged or broken down).
func (s *cgSystem) step(iter int, opt *Options) bool {
	res := s.res
	pap := sparse.Dot(s.p, s.ap)
	if pap == 0 {
		res.Breakdown = true
		return true
	}
	alpha := s.rz / pap
	sparse.Axpy(alpha, s.p, res.X)
	sparse.Axpy(-alpha, s.ap, s.r)
	res.Iterations = iter

	rn := sparse.Norm2(s.r) / s.normB
	res.Residual = rn
	if opt.RecordResiduals {
		res.Residuals = append(res.Residuals, rn)
	}
	if s.monitor != nil {
		s.monitor(iter, rn)
	}
	if rn <= opt.Tol {
		res.Converged = true
		return true
	}
	precondition(s.z, s.r, s.invDiag)
	rzNew := sparse.Dot(s.r, s.z)
	beta := rzNew / s.rz
	s.rz = rzNew
	for i := range s.p {
		s.p[i] = s.z[i] + beta*s.p[i]
	}
	return false
}

// invertDiag returns the Jacobi preconditioner's inverse diagonal, or
// nil when diag is nil. A zero diagonal entry is an error.
func invertDiag(diag []float64) ([]float64, error) {
	if diag == nil {
		return nil, nil
	}
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("solver: zero diagonal at %d for Jacobi preconditioner", i)
		}
		inv[i] = 1 / d
	}
	return inv, nil
}

// precondition sets z = M⁻¹·r for the Jacobi preconditioner with inverse
// diagonal invDiag, or z = r when invDiag is nil.
func precondition(z, r, invDiag []float64) {
	if invDiag == nil {
		copy(z, r)
		return
	}
	for i := range z {
		z[i] = invDiag[i] * r[i]
	}
}

// BiCGSTAB solves A·x = b for general A by the stabilized biconjugate
// gradient method (van der Vorst, §II-B). When opt.Diag is set, the
// system is Jacobi-preconditioned from the left: the method iterates on
// D⁻¹A·x = D⁻¹b, which is how a production solver would normalize the
// wildly scaled diagonals of circuit and device matrices.
func BiCGSTAB(a Operator, b []float64, opt Options) (*Result, error) {
	if opt.Diag != nil {
		if err := checkDiag(opt.Diag, len(b)); err != nil {
			return nil, err
		}
		inv, err := invertDiag(opt.Diag)
		if err != nil {
			return nil, err
		}
		scaled := make([]float64, len(b))
		for i := range b {
			scaled[i] = b[i] * inv[i]
		}
		inner := opt
		inner.Diag = nil
		return BiCGSTAB(&rowScaledOperator{a: a, inv: inv, tmp: make([]float64, a.Rows())}, scaled, inner)
	}
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	n := len(b)
	res := &Result{X: make([]float64, n)}
	normB := sparse.Norm2(b)
	if normB == 0 {
		res.Converged = true
		return res, nil
	}

	r := sparse.CopyVec(b)
	rHat := sparse.CopyVec(r)
	p := make([]float64, n)
	v := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	var rho, alpha, omega float64 = 1, 1, 1

	limit := maxIter(opt, n)
	for k := 0; k < limit; k++ {
		if err := checkCtx(opt, res.Iterations); err != nil {
			return res, err
		}
		rhoNew := sparse.Dot(rHat, r)
		if rhoNew == 0 {
			res.Breakdown = true
			break
		}
		if k == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		rho = rhoNew
		a.Apply(v, p)
		d := sparse.Dot(rHat, v)
		if d == 0 {
			res.Breakdown = true
			break
		}
		alpha = rho / d
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		res.Iterations = k + 1
		sn := sparse.Norm2(s) / normB
		if sn <= opt.Tol {
			sparse.Axpy(alpha, p, res.X)
			res.Residual = sn
			res.Converged = true
			if opt.RecordResiduals {
				res.Residuals = append(res.Residuals, sn)
			}
			opt.fire(res.Iterations, sn)
			break
		}
		a.Apply(t, s)
		tt := sparse.Dot(t, t)
		if tt == 0 {
			res.Breakdown = true
			opt.fire(res.Iterations, sn)
			break
		}
		omega = sparse.Dot(t, s) / tt
		if omega == 0 {
			res.Breakdown = true
			opt.fire(res.Iterations, sn)
			break
		}
		for i := range res.X {
			res.X[i] += alpha*p[i] + omega*s[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		rn := sparse.Norm2(r) / normB
		res.Residual = rn
		if opt.RecordResiduals {
			res.Residuals = append(res.Residuals, rn)
		}
		opt.fire(res.Iterations, rn)
		if rn <= opt.Tol {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// BiCG solves A·x = b by the biconjugate gradient method, requiring Aᵀ.
// Jacobi preconditioning (Options.Diag) is not supported and is rejected
// rather than silently ignored.
func BiCG(a TransposeOperator, b []float64, opt Options) (*Result, error) {
	if opt.Diag != nil {
		return nil, fmt.Errorf("solver: BiCG does not support Jacobi preconditioning (Options.Diag)")
	}
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	n := len(b)
	res := &Result{X: make([]float64, n)}
	normB := sparse.Norm2(b)
	if normB == 0 {
		res.Converged = true
		return res, nil
	}
	r := sparse.CopyVec(b)
	rT := sparse.CopyVec(b)
	p := sparse.CopyVec(r)
	pT := sparse.CopyVec(rT)
	ap := make([]float64, n)
	atp := make([]float64, n)
	rho := sparse.Dot(rT, r)

	limit := maxIter(opt, n)
	for k := 0; k < limit; k++ {
		if err := checkCtx(opt, res.Iterations); err != nil {
			return res, err
		}
		if rho == 0 {
			res.Breakdown = true
			break
		}
		a.Apply(ap, p)
		d := sparse.Dot(pT, ap)
		if d == 0 {
			res.Breakdown = true
			break
		}
		alpha := rho / d
		sparse.Axpy(alpha, p, res.X)
		sparse.Axpy(-alpha, ap, r)
		a.ApplyT(atp, pT)
		sparse.Axpy(-alpha, atp, rT)
		res.Iterations = k + 1

		rn := sparse.Norm2(r) / normB
		res.Residual = rn
		if opt.RecordResiduals {
			res.Residuals = append(res.Residuals, rn)
		}
		opt.fire(res.Iterations, rn)
		if rn <= opt.Tol {
			res.Converged = true
			break
		}
		rhoNew := sparse.Dot(rT, r)
		beta := rhoNew / rho
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
			pT[i] = rT[i] + beta*pT[i]
		}
	}
	return res, nil
}

// GMRES solves A·x = b by restarted GMRES(m) with modified Gram-Schmidt
// Arnoldi and Givens rotations. Jacobi preconditioning (Options.Diag) is
// not supported and is rejected rather than silently ignored.
func GMRES(a Operator, b []float64, opt Options) (*Result, error) {
	if opt.Diag != nil {
		return nil, fmt.Errorf("solver: GMRES does not support Jacobi preconditioning (Options.Diag)")
	}
	if err := checkDims(a, b); err != nil {
		return nil, err
	}
	n := len(b)
	m := opt.Restart
	if m <= 0 {
		m = 30
	}
	if m > n {
		m = n
	}
	res := &Result{X: make([]float64, n)}
	normB := sparse.Norm2(b)
	if normB == 0 {
		res.Converged = true
		return res, nil
	}
	limit := maxIter(opt, n)

	r := make([]float64, n)
	w := make([]float64, n)
	// Krylov basis and Hessenberg storage.
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)

	for res.Iterations < limit {
		if err := checkCtx(opt, res.Iterations); err != nil {
			return res, err
		}
		// r = b − A·x
		a.Apply(r, res.X)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		beta := sparse.Norm2(r)
		rn := beta / normB
		res.Residual = rn
		if rn <= opt.Tol {
			res.Converged = true
			break
		}
		for i := range r {
			v[0][i] = r[i] / beta
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && res.Iterations < limit; k++ {
			if err := checkCtx(opt, res.Iterations); err != nil {
				return res, err
			}
			a.Apply(w, v[k])
			res.Iterations++
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = sparse.Dot(w, v[i])
				sparse.Axpy(-h[i][k], v[i], w)
			}
			arnoldiNorm := sparse.Norm2(w)
			h[k+1][k] = arnoldiNorm
			if arnoldiNorm != 0 {
				for i := range w {
					v[k+1][i] = w[i] / arnoldiNorm
				}
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation annihilating h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h[k][k]/denom, h[k+1][k]/denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]

			rn = math.Abs(g[k+1]) / normB
			res.Residual = rn
			if opt.RecordResiduals {
				res.Residuals = append(res.Residuals, rn)
			}
			opt.fire(res.Iterations, rn)
			if rn <= opt.Tol {
				k++
				break
			}
			if arnoldiNorm == 0 { // lucky breakdown: exact solution in span
				k++
				break
			}
		}
		// Back-substitute y from the k×k triangular system.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			sum := g[i]
			for j := i + 1; j < k; j++ {
				sum -= h[i][j] * y[j]
			}
			if h[i][i] == 0 {
				res.Breakdown = true
				return res, nil
			}
			y[i] = sum / h[i][i]
		}
		for j := 0; j < k; j++ {
			sparse.Axpy(y[j], v[j], res.X)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// rowScaledOperator applies y = D⁻¹·A·x, the left-Jacobi-preconditioned
// operator used by BiCGSTAB when Options.Diag is provided.
type rowScaledOperator struct {
	a   Operator
	inv []float64
	tmp []float64
}

// Rows returns the operator's row count.
func (o *rowScaledOperator) Rows() int { return o.a.Rows() }

// Cols returns the operator's column count.
func (o *rowScaledOperator) Cols() int { return o.a.Cols() }

// Apply computes y = D⁻¹·(A·x).
func (o *rowScaledOperator) Apply(y, x []float64) {
	o.a.Apply(o.tmp, x)
	for i := range y {
		y[i] = o.tmp[i] * o.inv[i]
	}
}
