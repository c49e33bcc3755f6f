package bench

import (
	"regexp"
	"strings"
	"testing"
)

// tiny keeps the corpus unit-testable in seconds; CI and the committed
// baselines use the real Short/Full presets.
var tiny = Preset{
	Name: "tiny", Warmup: 1, Reps: 3,
	EngineRows: 96, EngineBand: 16,
	SolverScale: 0.02,
	CacheRows:   64, HitBatch: 8,
}

func TestRunSuiteFullCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s, err := RunSuite(tiny, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != len(All()) {
		t.Fatalf("ran %d benchmarks, corpus has %d", len(s.Results), len(All()))
	}
	for _, r := range s.Results {
		if len(r.SamplesNs) != tiny.Reps {
			t.Fatalf("%s: %d samples, want %d", r.Name, len(r.SamplesNs), tiny.Reps)
		}
		if !(r.MedianNs > 0) {
			t.Fatalf("%s: non-positive median %v", r.Name, r.MedianNs)
		}
		if r.InnerOps < 1 {
			t.Fatalf("%s: inner ops %d", r.Name, r.InnerOps)
		}
	}
	// The hot-path metrics the CI trajectory tracks must be present.
	for name, key := range map[string]string{
		"engine/apply/serial": "adc_conversions_per_sec",
		"engine/program":      "clusters_per_sec",
		"solve/csr/cg":        "iterations_per_sec",
		"solve/accel/cg":      "adc_conversions_per_sec",
		"serve/cache/hit":     "hits_per_sec",
	} {
		r := s.Lookup(name)
		if r == nil {
			t.Fatalf("benchmark %s missing from suite", name)
		}
		if !(r.Metrics[key] > 0) {
			t.Fatalf("%s: metric %s = %v, want > 0 (metrics %v)", name, key, r.Metrics[key], r.Metrics)
		}
	}
}

// TestWorkloadsDeterministic reruns the solver and engine workloads and
// requires every deterministic metric to be bit-identical — the
// property the compare gate's drift detection is built on.
func TestWorkloadsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads twice")
	}
	filter := regexp.MustCompile(`^(solve/|engine/program)`)
	a, err := RunSuite(tiny, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(tiny, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ra := range a.Results {
		rb := b.Lookup(ra.Name)
		if rb == nil {
			t.Fatalf("%s missing from rerun", ra.Name)
		}
		for key := range DeterministicMetrics {
			va, okA := ra.Metrics[key]
			vb, okB := rb.Metrics[key]
			if okA != okB || va != vb {
				t.Fatalf("%s: deterministic metric %s drifted across identical runs: %v vs %v",
					ra.Name, key, va, vb)
			}
		}
		if strings.HasPrefix(ra.Name, "solve/") {
			if !(ra.Metrics["iterations"] > 0) {
				t.Fatalf("%s: missing iterations metric: %v", ra.Name, ra.Metrics)
			}
		}
	}
	rep, err := Compare(a, b, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Drifted(); len(d) != 0 {
		t.Fatalf("identical reruns reported drift: %+v", d)
	}
}

func TestRunSuiteFilter(t *testing.T) {
	s, err := RunSuite(tiny, regexp.MustCompile(`^serve/cache/hit$`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 1 || s.Results[0].Name != "serve/cache/hit" {
		t.Fatalf("filter leaked: %+v", s.Results)
	}
	if _, err := RunSuite(tiny, regexp.MustCompile(`^nope$`), nil); err == nil {
		t.Fatal("empty filter match accepted")
	}
}

// TestKernelForce runs one engine workload with the generic kernel
// forced: the force must reach the clusters (a bogus or retired name
// fails setup), the deterministic workload observables must match the
// automatic choice, and the suite must record which kernel it measured.
func TestKernelForce(t *testing.T) {
	filter := regexp.MustCompile(`^engine/apply/serial$`)
	base, err := RunSuite(tiny, filter, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := tiny
	p.Kernel = "generic"
	s, err := RunSuite(p, filter, nil)
	if err != nil {
		t.Fatalf("kernel generic: %v", err)
	}
	if s.Kernel != "generic" {
		t.Fatalf("suite recorded kernel %q, want generic", s.Kernel)
	}
	got, want := s.Results[0].Metrics, base.Results[0].Metrics
	for key := range DeterministicMetrics {
		if got[key] != want[key] {
			t.Fatalf("kernel generic: deterministic metric %s = %v, auto = %v", key, got[key], want[key])
		}
	}
	for _, kernel := range []string{"vectorized", "swar", "blocked"} {
		p := tiny
		p.Kernel = kernel
		if _, err := RunSuite(p, filter, nil); err == nil {
			t.Fatalf("unknown kernel name %q accepted", kernel)
		}
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"short", "full"} {
		p, err := PresetByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("PresetByName(%q) = %+v, %v", name, p, err)
		}
		if p.Reps < 4 {
			t.Fatalf("preset %s has %d reps; the rank test needs >= 4 for significance", name, p.Reps)
		}
	}
	if _, err := PresetByName("medium"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
