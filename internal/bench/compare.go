package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// CompareConfig tunes the two-sample comparison and the regression
// gate.
type CompareConfig struct {
	// Alpha is the significance level for the Mann–Whitney test;
	// deltas with p ≥ Alpha are reported as noise. Zero means 0.05.
	Alpha float64
	// MaxRegress is the gate threshold as a fraction: a benchmark
	// fails the gate when its median slowed by more than MaxRegress
	// (e.g. 1.0 = more than 2× slower) AND the slowdown is
	// statistically significant. Zero means 0.2. CI uses a generous
	// value because the committed baseline may come from different
	// hardware; the gate exists to catch gross regressions, the
	// per-benchmark report to surface subtle ones.
	MaxRegress float64
	// MaxAllocRegress gates allocs/op growth the same way: a benchmark
	// fails when its allocs/op grew by more than this fraction (0.5 =
	// more than 1.5×) and by more than allocGateFloor per op (tiny
	// counts are below measurement noise). Allocation counts are
	// near-deterministic and hardware-independent, so this gate can be
	// much tighter than the timing one. Zero means 0.5; negative
	// disables the gate. Benchmarks without Mem on either side never
	// alloc-gate.
	MaxAllocRegress float64
}

// allocGateFloor is the absolute allocs/op growth below which the alloc
// gate never fires, whatever the ratio: going from 0.1 to 1 allocs/op
// is a 10× "regression" of pure accounting noise.
const allocGateFloor = 16.0

func (c CompareConfig) alpha() float64 {
	if c.Alpha <= 0 {
		return 0.05
	}
	return c.Alpha
}

func (c CompareConfig) maxRegress() float64 {
	if c.MaxRegress <= 0 {
		return 0.2
	}
	return c.MaxRegress
}

func (c CompareConfig) maxAllocRegress() (float64, bool) {
	if c.MaxAllocRegress < 0 {
		return 0, false
	}
	if c.MaxAllocRegress == 0 {
		return 0.5, true
	}
	return c.MaxAllocRegress, true
}

// Delta is the comparison outcome for one benchmark name.
type Delta struct {
	Name     string  `json:"name"`
	OldNs    float64 `json:"oldMedianNs"`
	NewNs    float64 `json:"newMedianNs"`
	OldIQRNs float64 `json:"oldIqrNs"`
	NewIQRNs float64 `json:"newIqrNs"`
	// Change is (new − old)/old on the medians; +0.30 means 30% slower.
	Change float64 `json:"change"`
	// P is the two-sided Mann–Whitney p-value over the raw samples.
	P float64 `json:"p"`
	// Significant is P < Alpha.
	Significant bool `json:"significant"`
	// Regression is the gate verdict: significant slowdown beyond
	// MaxRegress on a comparable workload.
	Regression bool `json:"regression"`
	// Improvement is a significant speedup (informational).
	Improvement bool `json:"improvement"`
	// HasMem reports that both suites carried allocation columns for
	// this benchmark; the alloc fields below are meaningful only then.
	HasMem bool `json:"hasMem,omitempty"`
	// OldAllocs/NewAllocs are allocs/op; AllocChange is their relative
	// growth ((new − old)/old).
	OldAllocs   float64 `json:"oldAllocsPerOp,omitempty"`
	NewAllocs   float64 `json:"newAllocsPerOp,omitempty"`
	AllocChange float64 `json:"allocChange,omitempty"`
	// AllocRegression is the alloc-gate verdict: allocs/op grew beyond
	// MaxAllocRegress (and the absolute floor) on a comparable workload.
	AllocRegression bool `json:"allocRegression,omitempty"`
	// Drifted lists deterministic metrics whose values differ between
	// the suites: the workload changed, so the time delta is not
	// comparable and is excluded from the gate.
	Drifted []string `json:"drifted,omitempty"`
	// MissingIn is "old" or "new" when the benchmark exists in only
	// one suite (new benchmarks appear, retired ones disappear);
	// missing entries never gate.
	MissingIn string `json:"missingIn,omitempty"`
}

// Report is the full comparison of two suites.
type Report struct {
	OldPreset string        `json:"oldPreset"`
	NewPreset string        `json:"newPreset"`
	Config    CompareConfig `json:"config"`
	Deltas    []Delta       `json:"deltas"`
}

// Compare runs the two-sample comparison for every benchmark name in
// either suite. It refuses to compare suites recorded at different
// presets, whose workload sizes differ by construction, or at different
// GOMAXPROCS, whose parallel workloads run different code: with more
// than one proc engine programming and ApplyBatch fan out to worker
// goroutines, which changes both time and allocations per op.
func Compare(base, head *Suite, cfg CompareConfig) (*Report, error) {
	if base.Preset != head.Preset {
		return nil, fmt.Errorf("bench: preset mismatch: old %q vs new %q", base.Preset, head.Preset)
	}
	if base.GOMAXPROCS != head.GOMAXPROCS {
		return nil, fmt.Errorf("bench: GOMAXPROCS mismatch: old suite recorded at %d, new at %d; rerun with GOMAXPROCS=%d",
			base.GOMAXPROCS, head.GOMAXPROCS, base.GOMAXPROCS)
	}
	rep := &Report{OldPreset: base.Preset, NewPreset: head.Preset, Config: cfg}
	names := unionNames(base, head)
	for _, name := range names {
		o, n := base.Lookup(name), head.Lookup(name)
		switch {
		case o == nil:
			rep.Deltas = append(rep.Deltas, Delta{Name: name, MissingIn: "old",
				NewNs: n.MedianNs, NewIQRNs: n.IQRNs})
			continue
		case n == nil:
			rep.Deltas = append(rep.Deltas, Delta{Name: name, MissingIn: "new",
				OldNs: o.MedianNs, OldIQRNs: o.IQRNs})
			continue
		}
		d := Delta{
			Name:  name,
			OldNs: o.MedianNs, NewNs: n.MedianNs,
			OldIQRNs: o.IQRNs, NewIQRNs: n.IQRNs,
			P:       MannWhitney(o.SamplesNs, n.SamplesNs),
			Drifted: driftedMetrics(o, n),
		}
		if o.MedianNs > 0 {
			d.Change = (n.MedianNs - o.MedianNs) / o.MedianNs
		}
		d.Significant = d.P < cfg.alpha()
		comparable := len(d.Drifted) == 0
		d.Regression = comparable && d.Significant && d.Change > cfg.maxRegress()
		d.Improvement = comparable && d.Significant && d.Change < 0
		if o.Mem != nil && n.Mem != nil {
			d.HasMem = true
			d.OldAllocs, d.NewAllocs = o.Mem.AllocsPerOp, n.Mem.AllocsPerOp
			if d.OldAllocs > 0 {
				d.AllocChange = (d.NewAllocs - d.OldAllocs) / d.OldAllocs
			}
			if thresh, on := cfg.maxAllocRegress(); on {
				d.AllocRegression = comparable &&
					d.NewAllocs > d.OldAllocs*(1+thresh) &&
					d.NewAllocs-d.OldAllocs > allocGateFloor
			}
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep, nil
}

// driftedMetrics returns the deterministic metric keys present in both
// results whose values differ.
func driftedMetrics(o, n *Result) []string {
	var out []string
	for key := range DeterministicMetrics {
		ov, okO := o.Metrics[key]
		nv, okN := n.Metrics[key]
		if okO && okN && ov != nv {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

func unionNames(base, head *Suite) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range []*Suite{base, head} {
		for _, r := range s.Results {
			if !seen[r.Name] {
				seen[r.Name] = true
				names = append(names, r.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Regressions returns the deltas that fail the gate.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// AllocRegressions returns the deltas that fail the allocation gate.
func (r *Report) AllocRegressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.AllocRegression {
			out = append(out, d)
		}
	}
	return out
}

// Drifted returns the deltas whose workloads changed between suites.
func (r *Report) Drifted() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if len(d.Drifted) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// Gate returns a non-nil error when any benchmark regressed beyond the
// configured timing or allocation threshold — the error the CI job
// turns into a red check.
func (r *Report) Gate() error {
	regs := r.Regressions()
	aregs := r.AllocRegressions()
	if len(regs) == 0 && len(aregs) == 0 {
		return nil
	}
	if len(regs) > 0 {
		worst := regs[0]
		for _, d := range regs {
			if d.Change > worst.Change {
				worst = d
			}
		}
		return fmt.Errorf("bench: %d benchmark(s) regressed beyond %.0f%% (worst: %s %+.1f%%, p=%.3g); %d alloc regression(s)",
			len(regs), r.Config.maxRegress()*100, worst.Name, worst.Change*100, worst.P, len(aregs))
	}
	worst := aregs[0]
	for _, d := range aregs {
		if d.AllocChange > worst.AllocChange {
			worst = d
		}
	}
	thresh, _ := r.Config.maxAllocRegress()
	return fmt.Errorf("bench: %d benchmark(s) grew allocs/op beyond %.0f%% (worst: %s %.1f -> %.1f allocs/op, %+.0f%%)",
		len(aregs), thresh*100, worst.Name, worst.OldAllocs, worst.NewAllocs, worst.AllocChange*100)
}

// Format renders a benchstat-style table. The trailing marker column:
// "!" gate failure, "+" significant improvement, "~" no significant
// difference, "?" workload drift, "new"/"gone" presence changes, and a
// bare significance note for slowdowns below the gate threshold.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "%-28s %14s %14s %9s %8s  %s\n",
		"name ("+r.NewPreset+")", "old median", "new median", "delta", "p", "")
	for _, d := range r.Deltas {
		switch d.MissingIn {
		case "old":
			fmt.Fprintf(w, "%-28s %14s %14s %9s %8s  new\n", d.Name, "-", fmtNs(d.NewNs), "-", "-")
			continue
		case "new":
			fmt.Fprintf(w, "%-28s %14s %14s %9s %8s  gone\n", d.Name, fmtNs(d.OldNs), "-", "-", "-")
			continue
		}
		mark := "~"
		switch {
		case len(d.Drifted) > 0:
			mark = "? workload drift: " + fmt.Sprint(d.Drifted)
		case d.Regression:
			mark = "! REGRESSION"
		case d.Improvement:
			mark = "+"
		case d.Significant && d.Change > 0:
			mark = "slower (below gate)"
		}
		if d.AllocRegression {
			mark += "  ! ALLOC REGRESSION"
		}
		if d.HasMem {
			mark += fmt.Sprintf("  [allocs/op %.1f -> %.1f]", d.OldAllocs, d.NewAllocs)
		}
		fmt.Fprintf(w, "%-28s %14s %14s %+8.1f%% %8.3g  %s\n",
			d.Name, fmtNs(d.OldNs), fmtNs(d.NewNs), d.Change*100, d.P, mark)
	}
	if g := geomeanChange(r.Deltas); !math.IsNaN(g) {
		fmt.Fprintf(w, "%-28s %14s %14s %+8.1f%%\n", "geomean", "", "", g*100)
	}
}

// geomeanChange aggregates the comparable ratios; NaN when none.
func geomeanChange(deltas []Delta) float64 {
	var logSum float64
	var n int
	for _, d := range deltas {
		if d.MissingIn != "" || len(d.Drifted) > 0 || d.OldNs <= 0 || d.NewNs <= 0 {
			continue
		}
		logSum += math.Log(d.NewNs / d.OldNs)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum/float64(n)) - 1
}
