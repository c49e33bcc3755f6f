package main

import (
	"fmt"
	"time"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/device"
	"memsci/internal/matgen"
	"memsci/internal/montecarlo"
	"memsci/internal/sparse"
)

// mc-inject: two trials in flight call (*montecarlo.Study).Run on a
// 96-row variant of DefaultStudy's system at the Fig. 13 point B=1 with
// 3% programming error. Each trial programs a fresh engine with
// InjectErrors and runs CG to 1e-6, checked on the true residual. This is
// the only workload on the injected-error MVM path, and it bypasses serve.
const (
	mcRows      = 96
	mcTol       = 1e-6
	mcMaxIter   = 300
	mcProgError = 0.03
	mcClients   = 2
	mcWarmups   = 3 // per client
)

// mcStudy is DefaultStudy's construction at 96 rows: a banded SPD system
// blocked on the 512 substrate with a 64-entry threshold. The smaller
// system, narrower exponent spread and wider diagonal margin than
// DefaultStudy's keep a trial near 0.4 s with two in flight (16 CG
// iterations), so a run holds enough trials for its p90; a 128-row trial
// takes 0.7–0.9 s on a 2-core host.
func mcStudy(seed int64) (*montecarlo.Study, error) {
	spec := matgen.Spec{Name: "mc_spd_96", Rows: mcRows, NNZ: mcRows * 13, SPD: true, Class: matgen.Banded,
		Band: mcRows, ExpSpread: 1, Seed: 4242, DiagMargin: 2}
	m := spec.Generate()
	sub := blocking.Substrate{Sizes: []int{512}, MaxPad: core.MaxPadBits, Threshold: func(int) int { return 64 }}
	plan, err := blocking.Preprocess(m, sub)
	if err != nil {
		return nil, err
	}
	return &montecarlo.Study{Matrix: m, Plan: plan, Tol: mcTol, MaxIter: mcMaxIter, Trials: 1, Seed: seed}, nil
}

// mcDevice is the Fig. 13 point: single-bit TaOx cells, 3% programming
// error.
func mcDevice() device.Params {
	d := device.TaOx()
	d.BitsPerCell = 1
	d.ProgError = mcProgError
	return d
}

type mcInject struct {
	o     options
	study *montecarlo.Study
	dev   device.Params
}

func setupMCInject(o options) (system, error) {
	st, err := mcStudy(o.seed)
	if err != nil {
		return nil, err
	}
	w := &mcInject{o: o, study: st, dev: mcDevice()}
	if err := warmUp(mcClients, mcWarmups, w.op); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *mcInject) close()                    {}
func (w *mcInject) evictions() int64          { return 0 }
func (w *mcInject) setupTrace(*opTrace) error { return nil }

// trialSeed derives trial idx's device-error seed from the workload seed.
func (w *mcInject) trialSeed(idx int64) int64 { return splitmix(w.o.seed, idx) }

// op runs one trial. Study.Run checks the answer on the true residual
// itself and reports a failed or spuriously converged trial as MaxIter.
func (w *mcInject) op(idx int64) outcome {
	start := time.Now()
	iters, err := w.study.Run(w.dev, w.trialSeed(idx))
	oc := outcome{idx: idx, iters: iters, latency: time.Since(start), err: err}
	if err == nil && w.o.corrupt != nil && w.o.corrupt(idx) {
		iters = mcMaxIter
	}
	if err == nil && iters >= mcMaxIter {
		oc.err = fmt.Errorf("trial did not converge within %d iterations", mcMaxIter)
	}
	oc.ok = oc.err == nil
	return oc
}

func (w *mcInject) tracedOp(idx int64, tr *opTrace) outcome {
	root := tr.begin(-1, "op")
	defer tr.end(root)
	sr := tr.begin(root, "montecarlo.Study.Run")
	oc := w.op(idx)
	tr.end(sr)
	if !oc.ok {
		return oc
	}

	// The direct replay of the trial: program a fresh engine with
	// injection, CG to the study's tolerance, the true-residual check.
	rp := tr.begin(root, "replay")
	defer tr.end(rp)
	cfg := core.DefaultClusterConfig()
	cfg.Device = w.dev
	cfg.InjectErrors = true
	ne := tr.begin(rp, "accel.NewEngine")
	eng, err := accel.NewEngine(w.study.Plan, cfg, w.trialSeed(idx))
	tr.end(ne)
	if err != nil {
		oc.ok, oc.err = false, err
		return oc
	}
	b := sparse.Ones(w.study.Matrix.Rows())
	r, err := replaySolve(tr, rp, eng, w.study.Matrix, b, false, mcTol, mcMaxIter)
	if err != nil {
		oc.ok, oc.err = false, err
		return oc
	}
	ck := tr.begin(rp, "montecarlo.check")
	sparse.Norm2(sparse.Residual(w.study.Matrix, r.x, b))
	tr.end(ck)

	ti := &tracedInfo{
		plan: w.study.Plan, clusters: eng.Clusters(), model: model(w.study.Matrix, w.study.Plan, r.iters),
		replayMismatch: r.iters != oc.iters, ledger: map[string]ledgerCell{},
	}
	solveLedger(tr, ti, r)
	ti.ledger["accel.program"] = ledgerCell{ms: tr.ms(ne), calls: 1}
	oc.traced = ti
	return oc
}
