// Command memsim runs one matrix end to end through the accelerator
// pipeline: workload generation (or MatrixMarket input), heterogeneous
// blocking, capacity-aware mapping, the performance/energy comparison
// against the Tesla P100 baseline, and — optionally — a functional
// (bit-exact) solve on simulated crossbars.
//
//	memsim -matrix torso2                      # catalog stand-in, model only
//	memsim -matrix qa8fm -scale 0.05 -solve    # reduced size + functional solve
//	memsim -mm path/to/matrix.mtx -solve       # external MatrixMarket input
//	memsim -list                               # show the Table II catalog
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memsci"
	"memsci/internal/obs"
	"memsci/internal/report"
	"memsci/internal/sparse"
)

func main() {
	var (
		name   = flag.String("matrix", "", "catalog matrix name (see -list)")
		mmPath = flag.String("mm", "", "MatrixMarket file to load instead of a catalog matrix")
		scale  = flag.Float64("scale", 1.0, "matrix scale factor (catalog matrices only)")
		solve  = flag.Bool("solve", false, "run a functional bit-exact solve on the simulated crossbars")
		iters  = flag.Int("iters", 0, "solver iteration count for the model (0 = catalog value or 1000)")
		tol    = flag.Float64("tol", 1e-8, "relative residual tolerance for -solve")
		trace  = flag.String("trace", "", "with -solve: write the per-iteration trace (residual, wall-clock, hardware-counter deltas) as JSONL to this file")
		list   = flag.Bool("list", false, "list the catalog matrices and exit")
	)
	flag.Parse()

	if *list {
		t := report.NewTable("name", "rows", "nnz", "nnz/row", "spd", "domain", "paper blocked")
		for _, s := range memsci.Catalog() {
			t.Add(s.Name, s.Rows, s.NNZ,
				fmt.Sprintf("%.1f", float64(s.NNZ)/float64(s.Rows)),
				s.SPD, s.Domain, fmt.Sprintf("%.1f%%", s.PaperBlocked*100))
		}
		t.Fprint(os.Stdout)
		return
	}

	var (
		m        *memsci.CSR
		spd      bool
		bicg     bool
		modelIts = *iters
		label    string
	)
	switch {
	case *mmPath != "":
		f, err := os.Open(*mmPath)
		if err != nil {
			log.Fatal(err)
		}
		coo, _, err := sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		m = coo.ToCSR()
		spd = m.IsSymmetric(1e-12)
		bicg = !spd
		label = *mmPath
		if modelIts == 0 {
			modelIts = 1000
		}
	case *name != "":
		spec, err := memsci.MatrixByName(*name)
		if err != nil {
			log.Fatal(err)
		}
		if *scale >= 1 {
			m = spec.Generate()
		} else {
			m = spec.GenerateScaled(*scale)
		}
		spd = spec.SPD
		bicg = !spec.SPD
		label = spec.Name
		if modelIts == 0 {
			modelIts = spec.SolveIters
		}
	default:
		fmt.Fprintln(os.Stderr, "need -matrix or -mm (use -list to see the catalog)")
		os.Exit(2)
	}

	fmt.Printf("%s: %dx%d, %d nnz (%.1f per row)\n",
		label, m.Rows(), m.Cols(), m.NNZ(), float64(m.NNZ())/float64(m.Rows()))

	sys := memsci.NewSystem()
	ev, err := memsci.Evaluate(label, m, bicg, modelIts, sys)
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("metric", "value")
	t.Add("blocking efficiency", fmt.Sprintf("%.1f%%", ev.Blocked*100))
	for _, size := range []int{512, 256, 128, 64} {
		ss := ev.Plan.Stats.PerSize[size]
		if ss.Blocks > 0 {
			t.Add(fmt.Sprintf("  %d-blocks", size), fmt.Sprintf("%d (%d nnz)", ss.Blocks, ss.NNZ))
		}
	}
	t.Add("unblocked nnz", ev.Plan.Unblocked.NNZ())
	t.Add("preprocessing passes", fmt.Sprintf("%.2f per nnz", ev.Plan.Stats.Passes()))
	t.Add("execution target", ev.Target.String())
	solverName := "CG"
	if bicg {
		solverName = "BiCG-STAB"
	}
	t.Add("solver / iterations", fmt.Sprintf("%s / %d", solverName, ev.Iters))
	t.Add("GPU iteration", report.SI(ev.GPUIterTime, "s"))
	t.Add("accelerator iteration", report.SI(ev.AccelIterTime, "s"))
	t.Add("preprocess + write", report.SI(ev.PreprocessTime, "s")+" + "+report.SI(ev.WriteTime, "s"))
	t.Add("speedup (Fig. 8)", fmt.Sprintf("%.2fx", ev.Speedup()))
	t.Add("energy vs GPU (Fig. 9)", fmt.Sprintf("%.4f (%.1fx better)", ev.EnergyRatio(), 1/ev.EnergyRatio()))
	t.Add("init overhead (Fig. 10)", fmt.Sprintf("%.2f%%", ev.InitOverhead()*100))
	eb := ev.Mapped.SpMVEnergyBreakdown()
	t.Add("SpMV energy split", fmt.Sprintf("array %s, ADC %s, local %s, mem %s, static %s",
		report.SI(eb.Array, "J"), report.SI(eb.ADC, "J"), report.SI(eb.Local, "J"),
		report.SI(eb.Memory, "J"), report.SI(eb.Static, "J")))
	t.Fprint(os.Stdout)

	if !*solve {
		return
	}
	if m.NNZ() > 2_000_000 {
		fmt.Println("\n(functional solve skipped: matrix too large for bit-exact simulation; use -scale)")
		return
	}
	fmt.Println("\nfunctional bit-exact solve on simulated crossbars:")
	if _, err := memsci.JacobiScale(m, spd); err != nil {
		log.Fatal(err)
	}
	plan, err := memsci.Preprocess(m)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := memsci.NewEngine(plan, memsci.DefaultClusterConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	opt := memsci.DefaultSolveOptions()
	opt.Tol = *tol
	opt.MaxIter = 20000
	method := memsci.MethodBiCGSTAB
	methodName := "bicgstab"
	if spd {
		method = memsci.MethodCG
		methodName = "cg"
	}
	var sp *obs.Span
	var rec *obs.Recorder
	if *trace != "" {
		sp = obs.NewSpan("", "solve")
		rec = obs.NewRecorder(sp, engine.HWCounters)
		opt.Monitor = rec.Observe
	}
	res, err := memsci.SolveOn(engine, memsci.Ones(m.Rows()), method, spd, opt)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		rec.Finish()
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		if err := sp.WriteJSONL(f, label, methodName, "accel"); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %d iteration samples to %s\n", len(sp.Samples), *trace)
	}
	fmt.Printf("  converged=%v iterations=%d residual=%.2e\n", res.Converged, res.Iterations, res.Residual)
	st := engine.Stats()
	fmt.Printf("  %d cluster ops, %d slices applied, %d conversions, AN accuracy %.4f%%\n",
		st.Ops, st.VectorSlicesApplied, st.Conversions, st.AN.Accuracy()*100)
}
