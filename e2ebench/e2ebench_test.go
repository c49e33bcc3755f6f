package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// The self-test runs every workload for a few operations. Run it from
// this directory with `go test -short .`.

type benchSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short runs one invocation for about a second of measured time.
func short(t *testing.T, workload string, trace bool, corrupt func(int64) bool) (*result, string) {
	t.Helper()
	var buf bytes.Buffer
	o := options{workload: workload, seed: 1, seconds: 1.5, trace: trace, setups: 1, spanDir: t.TempDir(), corrupt: corrupt}
	res, err := run(&buf, o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if err := writeResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// checkPrinted asserts that the result carries exactly the spec's metrics
// with their units, and that each prints on a line with its unit and
// sample count.
func checkPrinted(t *testing.T, label string, want []struct{ Name, Unit string }, res *result, out string) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range res.metrics {
		got[m.name] = m
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, w.Name)
			continue
		}
		if m.unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", label, w.Name, m.unit, w.Unit)
		}
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(strings.TrimSpace(l), w.Name+" ") {
				line = l
				break
			}
		}
		if !strings.Contains(line, " "+w.Unit+" ") || !strings.Contains(line, fmt.Sprintf("n=%d", m.n)) {
			t.Errorf("%s: %s not printed with unit and sample count: %q", label, w.Name, line)
		}
	}
	last := out[strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n")+1:]
	var final map[string]any
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Errorf("%s: last line is not JSON: %v", label, err)
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, out := short(t, wl.Name, false, nil)
			if res.attempted == 0 || res.failed != 0 || !res.correct {
				t.Fatalf("untraced run: attempted %d, failed %d, correct %v\n%s", res.attempted, res.failed, res.correct, out)
			}
			checkPrinted(t, wl.Name+" untraced", spec.EndToEnd, res, out)
			if !strings.Contains(out, "failed_frac") || !strings.Contains(out, "drift sentinel") {
				t.Errorf("untraced output lacks failed_frac or the drift sentinel:\n%s", out)
			}

			res, out = short(t, wl.Name, true, nil)
			if res.failed != 0 || !res.correct {
				t.Fatalf("traced run: failed %d, correct %v\n%s", res.failed, res.correct, out)
			}
			checkPrinted(t, wl.Name+" traced", spec.PerLayer, res, out)
			for _, want := range []string{"layer ledger", "modeled hardware", "spans written to"} {
				if !strings.Contains(out, want) {
					t.Errorf("traced output lacks %q", want)
				}
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	hit := func(seed int64) string {
		w := &solveHit{o: options{seed: seed}, ops: []hitOperator{{mm: "m"}}}
		_, body, err := w.request(0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	job := func(seed int64) string {
		_, _, body, err := (&jobsMiss{o: options{seed: seed}}).request(0)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	trial := func(seed int64) string { return fmt.Sprint((&mcInject{o: options{seed: seed}}).trialSeed(0)) }
	for name, in := range map[string]func(int64) string{"solve-hit": hit, "jobs-miss": job, "mc-inject": trial} {
		if in(1) != in(1) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if in(1) == in(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestWrongAnswerCountsAsFailed(t *testing.T) {
	for _, name := range []string{"solve-hit", "jobs-miss", "mc-inject"} {
		t.Run(name, func(t *testing.T) {
			res, out := short(t, name, false, func(idx int64) bool { return idx == 0 })
			if res.failed < 1 {
				t.Fatalf("corrupted answer not counted: failed %d of %d\n%s", res.failed, res.attempted, out)
			}
			if name != "mc-inject" && res.correct {
				t.Errorf("a wrong answer left correct=true")
			}
			for _, m := range res.metrics {
				if m.name == "ok_frac" && m.value >= 1 {
					t.Errorf("ok_frac %v with a failed operation", m.value)
				}
			}
			if v := printedValue(out, "failed_frac"); !(v > 0) {
				t.Errorf("failed_frac prints %v, want > 0:\n%s", v, out)
			}
		})
	}
}

// printedValue parses the value printed on the line of metric name.
func printedValue(out, name string) float64 {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 2 && f[0] == name {
			var v float64
			if _, err := fmt.Sscan(f[1], &v); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}
