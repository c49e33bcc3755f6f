// Command e2ebench is the repository's end-to-end benchmark. It drives
// the system only through public entry points — HTTP over loopback to an
// in-process serve.Server configured like cmd/memserve's defaults, and
// (*montecarlo.Study).Run — checks every answer, and prints either the
// end-to-end metrics (untraced run) or the per-layer metrics and a layer
// ledger (traced run).
//
//	bash e2ebench/run.sh --workload solve-hit --seed 1 --seconds 35 --trace 0
//
// Human-readable blocks come first; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// NOTES.md records why each workload exists and which layer metric should
// move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// options configures one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times an untraced run sets the workload up;
	// setup_s is the median. Traced runs set up once.
	setups int
	// spanDir receives the traced run's span file.
	spanDir string
	// corrupt, when non-nil, perturbs the answer of every operation it
	// selects before the answer check runs. The self-test uses it to show
	// that a wrong answer lands in failed_frac.
	corrupt func(op int64) bool
}

// metric is one printed measurement. n is its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// result is what one invocation reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	// A hung server must not keep the run past the 180 s limit; exit
	// without a result instead.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170 s, aborting without a result")
		os.Exit(3)
	})
	defer watchdog.Stop()

	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	o := options{setups: 3}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 35, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics, spans and the layer ledger")
	fs.StringVar(&o.spanDir, "span-dir", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing result:", err)
		os.Exit(1)
	}
}

// run executes one invocation, printing its human-readable blocks to w.
func run(w io.Writer, o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.trace {
		return runTraced(w, wl, o)
	}
	return runUntraced(w, wl, o)
}

// runUntraced measures the end-to-end metrics: set up several times
// (setup_s is their median), then run the closed loop for o.seconds.
func runUntraced(w io.Writer, wl workload, o options) (*result, error) {
	sys, setupTimes, err := setUp(wl, o, o.setups)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	refBefore := refLoop()
	steal0, stealErr := readCPUStat()
	ph := runPhase(wl.clients, seconds(o.seconds), counter(0), sys.op)
	refAfter := refLoop()
	steal := stealFraction(steal0, stealErr)

	e := endToEnd(ph, setupTimes)
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%g trace=0 clients=%d\n", o.workload, o.seed, o.seconds, wl.clients)
	fmt.Fprintln(w, "end-to-end (untraced):")
	// failed_frac prints beside the others; BENCHMARK.json carries it as
	// ok_frac because its metrics must never read 0.
	printMetrics(w, append(e.metrics, metric{name: "failed_frac", value: e.failedFrac, unit: "fraction",
		n: e.attempted, note: fmt.Sprintf("%d failed, %d of them wrong answers", e.failed, e.wrong)}))
	printSentinel(w, ph.outs)
	printHost(w, refBefore, refAfter, steal)
	return &result{correct: e.wrong == 0, attempted: e.attempted, failed: e.failed, metrics: e.metrics}, nil
}

// setUp builds the workload n times, timing each; every build but the
// last is torn down again.
func setUp(wl workload, o options, n int) (system, []float64, error) {
	var times []float64
	for k := 0; k < n; k++ {
		t := time.Now()
		s, err := wl.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		times = append(times, time.Since(t).Seconds())
		if k == n-1 {
			return s, times, nil
		}
		s.close()
	}
	return nil, nil, fmt.Errorf("setting up %s: no set-ups requested", o.workload)
}

// e2e holds the end-to-end metrics of one measured phase.
type e2e struct {
	metrics                  []metric
	attempted, failed, wrong int
	failedFrac               float64
}

func endToEnd(ph phase, setupTimes []float64) e2e {
	var e e2e
	lat := make([]float64, 0, len(ph.outs))
	okN := 0
	for _, oc := range ph.outs {
		e.attempted++
		// Latency percentiles are over verified operations; failures are
		// counted against ok_frac, whose bound is tight.
		if oc.ok {
			okN++
			lat = append(lat, ms(oc.latency))
		} else {
			e.failed++
		}
		if oc.wrong {
			e.wrong++
		}
	}
	sort.Float64s(lat)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	beyond90 := len(lat) - int(0.9*float64(len(lat)))
	note90 := fmt.Sprintf("%d beyond p90", beyond90)
	if beyond90 < 10 {
		note90 += "; fewer than 10, p90 is under-sampled"
	}
	e.failedFrac = float64(e.failed) / float64(max(e.attempted, 1))
	setupTimes = append([]float64(nil), setupTimes...)
	sort.Float64s(setupTimes)
	e.metrics = []metric{
		{name: "setup_s", value: quantile(setupTimes, 0.5), unit: "s", n: len(setupTimes),
			note: "median of set-ups " + joinFloats(setupTimes, "%.3f")},
		{name: "solves_per_s", value: float64(okN) / ph.elapsed.Seconds(), unit: "1/s", n: okN,
			note: fmt.Sprintf("verified solves over %.2f s", ph.elapsed.Seconds())},
		{name: "latency_p50_ms", value: p50, unit: "ms", n: len(lat)},
		{name: "latency_p90_ms", value: p90, unit: "ms", n: len(lat), note: note90},
		{name: "rss_peak_mb", value: peakRSSMB(), unit: "MB", n: 1, note: "process peak, set-ups included"},
		{name: "ok_frac", value: float64(okN) / float64(max(e.attempted, 1)), unit: "fraction", n: e.attempted,
			note: "1 - failed_frac"},
	}
	return e
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		note := fmt.Sprintf("n=%d", m.n)
		if m.note != "" {
			note += "; " + m.note
		}
		fmt.Fprintf(w, "  %-30s %-22s (%s)\n", m.name, fmtVal(m.value)+" "+m.unit, note)
	}
}

// printSentinel prints the drift sentinel: solver iterations over the
// first sentinelOps operations, which depend only on the seed, so a
// changed workload can be told apart from a slower program.
func printSentinel(w io.Writer, outs []outcome) {
	first, total, n := sentinel(outs)
	fmt.Fprintf(w, "drift sentinel: iterations of ops 0..%d = %d (%d of %d ops present); run total = %d iterations over %d ops\n",
		sentinelOps-1, first, n, sentinelOps, total, len(outs))
}

const sentinelOps = 16

func sentinel(outs []outcome) (first, total, n int) {
	for _, oc := range outs {
		total += oc.iters
		if oc.idx >= 0 && oc.idx < sentinelOps {
			first += oc.iters
			n++
		}
	}
	return first, total, n
}

func printHost(w io.Writer, before, after []float64, steal float64) {
	fmt.Fprintf(w, "host (diagnostic only, never used to adjust a metric): ref_loop_ms before=%s after=%s steal_frac=%s\n",
		joinFloats(before, "%.3f"), joinFloats(after, "%.3f"), fmtVal(steal))
}

// writeResult prints the final JSON line.
func writeResult(w io.Writer, r *result) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func fmtVal(v float64) string { return fmt.Sprintf("%.6g", v) }

func joinFloats(v []float64, f string) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, ",")
}
