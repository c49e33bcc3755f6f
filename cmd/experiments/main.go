// Command experiments regenerates every table and figure of the paper's
// evaluation (§VII-VIII) on the synthetic stand-in workloads:
//
//	experiments -run table1      accelerator configuration (Table I)
//	experiments -run table2      matrix set + blocking efficiency (Table II)
//	experiments -run table3      crossbar area/energy/latency (Table III)
//	experiments -run fig6        activation scheduling policies (Figure 6)
//	experiments -run fig7        blocking patterns, Pres_Poisson + xenon1 (Figure 7)
//	experiments -run fig8        speedup over the GPU baseline (Figure 8)
//	experiments -run fig9        energy vs the GPU baseline (Figure 9)
//	experiments -run fig10       preprocessing + write overhead (Figure 10)
//	experiments -run fig11       ns3Da blocking breakdown (Figure 11)
//	experiments -run fig12       sensitivity to cell dynamic range (Figure 12)
//	experiments -run fig13       sensitivity to programming error (Figure 13)
//	experiments -run area        system area footprint (§VIII-C)
//	experiments -run endurance   system lifetime (§VIII-E)
//	experiments -run reliability drift -> AN detection -> online refresh loop (§IV-E)
//	experiments -run ablation    per-technique gains (§IV, §V-B2)
//	experiments -run direct      direct-method fill-in (§II-B)
//	experiments -run motivation  low-precision datapaths stall (§I)
//	experiments -run mixedprec   mixed-precision iterative refinement vs full precision
//	experiments -run all         everything above
//
// Results print as aligned tables and ASCII bar charts; -csv switches the
// tabular output to CSV. Full-size workload generation plus modeling runs
// in seconds; the Monte-Carlo figures honor -trials and fan their trials
// out over -par worker goroutines (default: GOMAXPROCS).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"memsci/internal/obs"
)

type options struct {
	run     string
	csv     bool
	trials  int
	scale   float64
	seed    int64
	measure bool
	par     int
	trace   string
	gate    string

	traceMu   sync.Mutex
	traceFile *os.File
}

// dumpTrace appends one solve span's per-iteration JSONL rows to the
// -trace file (lazily created; a no-op when -trace is unset). Serialized
// so experiments that solve from worker goroutines interleave whole
// traces rather than torn lines.
func (o *options) dumpTrace(sp *obs.Span, label, method, backend string) error {
	if o.trace == "" {
		return nil
	}
	o.traceMu.Lock()
	defer o.traceMu.Unlock()
	if o.traceFile == nil {
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		o.traceFile = f
	}
	return sp.WriteJSONL(o.traceFile, label, method, backend)
}

func (o *options) closeTrace() {
	o.traceMu.Lock()
	defer o.traceMu.Unlock()
	if o.traceFile != nil {
		o.traceFile.Close()
		o.traceFile = nil
	}
}

func main() {
	var opt options
	flag.StringVar(&opt.run, "run", "all", "experiment to run (table1|table2|table3|fig6..fig13|area|endurance|reliability|ablation|direct|motivation|mixedprec|all)")
	flag.BoolVar(&opt.csv, "csv", false, "emit tables as CSV")
	flag.IntVar(&opt.trials, "trials", 12, "Monte-Carlo trials for fig12/fig13 (paper: 100)")
	flag.Float64Var(&opt.scale, "scale", 1.0, "matrix scale factor for the modeling experiments")
	flag.Int64Var(&opt.seed, "seed", 1, "Monte-Carlo base seed")
	flag.BoolVar(&opt.measure, "measure-iters", false, "measure solver iteration counts on scaled stand-ins instead of using the catalog counts")
	flag.IntVar(&opt.par, "par", 0, "worker goroutines for Monte-Carlo trials and multi-RHS batches (0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&opt.trace, "trace", "", "write per-iteration solver traces (JSONL) from the numeric solves (-measure-iters, motivation) to this file")
	flag.StringVar(&opt.gate, "gate", "", "mixedprec only: path to the committed ADC-conversion-ratio threshold file; exit nonzero when accuracy or the ratio misses it")
	flag.Parse()
	defer opt.closeTrace()

	runs := map[string]func(*options) error{
		"table1":      runTable1,
		"table2":      runTable2,
		"table3":      runTable3,
		"fig6":        runFig6,
		"fig7":        runFig7,
		"fig8":        runFig8,
		"fig9":        runFig9,
		"fig10":       runFig10,
		"fig11":       runFig11,
		"fig12":       runFig12,
		"ablation":    runAblation,
		"motivation":  runMotivation,
		"direct":      runDirect,
		"fig13":       runFig13,
		"area":        runArea,
		"endurance":   runEndurance,
		"reliability": runReliability,
		"mixedprec":   runMixedprec,
	}
	order := []string{"table1", "table2", "table3", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "area", "endurance",
		"reliability", "ablation", "direct", "motivation", "mixedprec"}

	names := []string{opt.run}
	if opt.run == "all" {
		names = order
	}
	for _, n := range names {
		f, ok := runs[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", n)
			os.Exit(2)
		}
		fmt.Printf("==== %s ====\n", strings.ToUpper(n))
		if err := f(&opt); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
