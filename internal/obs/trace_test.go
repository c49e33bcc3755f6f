package obs

import (
	"bufio"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakeCounters simulates an engine's cumulative hardware counters: each
// sample() advances them by a known per-iteration cost.
type fakeCounters struct {
	cum HWCounters
}

func (f *fakeCounters) step() {
	f.cum.Add(HWCounters{Slices: 3, EarlyTermSaved: 10, ADCConversions: 40, ANDetected: 2, ANCorrected: 1})
}

func (f *fakeCounters) sample() HWCounters { return f.cum }

func TestRecorderDeltasSumToWindow(t *testing.T) {
	fc := &fakeCounters{}
	rec := NewRecorder(fc.sample)
	const iters = 17
	for k := 1; k <= iters; k++ {
		fc.step() // the "Apply" work of iteration k
		rec.Observe(k, 1.0/float64(k))
	}
	fc.step() // tail work after the last iteration (GMRES-style restart residual)
	tr := rec.Finish(true, 1.0/iters)

	if len(tr.Iterations) != iters {
		t.Fatalf("%d samples want %d", len(tr.Iterations), iters)
	}
	total := tr.HWTotal()
	if total == nil {
		t.Fatal("no hardware totals")
	}
	if *total != fc.cum {
		t.Errorf("delta sum %+v != cumulative window %+v", *total, fc.cum)
	}
	if !tr.Converged || tr.Residual != 1.0/iters {
		t.Errorf("trace summary %+v", tr)
	}
	if tr.Iterations[0].HW.Slices != 3 || tr.Iterations[iters-1].HW.Slices != 6 {
		t.Errorf("per-iteration deltas wrong: first %+v last %+v (tail fold expected in last)",
			tr.Iterations[0].HW, tr.Iterations[iters-1].HW)
	}
}

// TestFinishReleasesSampler pins that a finished trace does not keep the
// recorder's sampler reachable. In serving the sampler reads the leased
// engine's counters, and the /debug/traces ring holds traces long after
// the engine cache evicted their engines.
func TestFinishReleasesSampler(t *testing.T) {
	collected := make(chan struct{})
	tr := func() *SolveTrace {
		fc := &fakeCounters{}
		runtime.SetFinalizer(fc, func(*fakeCounters) { close(collected) })
		rec := NewRecorder(fc.sample)
		fc.step()
		rec.Observe(1, 0.5)
		return rec.Finish(true, 0.5)
	}()
	for attempt := 0; attempt < 20; attempt++ {
		runtime.GC()
		select {
		case <-collected:
			if len(tr.Iterations) != 1 || tr.Iterations[0].HW.Slices != 3 {
				t.Fatalf("finished trace lost its samples: %+v", tr)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(tr)
	t.Fatal("the sampler's target stays reachable while the finished trace is held")
}

func TestRecorderNilSampler(t *testing.T) {
	rec := NewRecorder(nil)
	rec.Observe(1, 0.5)
	tr := rec.Finish(false, 0.5)
	if len(tr.Iterations) != 1 || tr.Iterations[0].HW != nil {
		t.Fatalf("nil-sampler trace %+v", tr)
	}
	if tr.HWTotal() != nil {
		t.Error("HWTotal should be nil without a sampler")
	}
}

// Past the sample cap, iterations aggregate into the final sample; total
// time and hardware deltas stay exact.
func TestRecorderTruncation(t *testing.T) {
	fc := &fakeCounters{}
	rec := NewRecorder(fc.sample)
	const iters = DefaultMaxSamples + 100
	for k := 1; k <= iters; k++ {
		fc.step()
		rec.Observe(k, 1)
	}
	tr := rec.Finish(false, 1)
	if len(tr.Iterations) != DefaultMaxSamples {
		t.Fatalf("%d samples want cap %d", len(tr.Iterations), DefaultMaxSamples)
	}
	if tr.Truncated != 100 {
		t.Errorf("truncated %d want 100", tr.Truncated)
	}
	if total := tr.HWTotal(); *total != fc.cum {
		t.Errorf("truncated totals drifted: %+v vs %+v", *total, fc.cum)
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	r := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(&SolveTrace{ID: string(rune('0' + i))})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("%d traces want 3", len(got))
	}
	for i, want := range []string{"5", "4", "3"} { // newest first
		if got[i].ID != want {
			t.Errorf("snapshot[%d] = %s want %s", i, got[i].ID, want)
		}
	}
}

func TestTraceRingPartial(t *testing.T) {
	r := NewTraceRing(8)
	r.Add(&SolveTrace{ID: "a"})
	r.Add(&SolveTrace{ID: "b"})
	got := r.Snapshot()
	if len(got) != 2 || got[0].ID != "b" || got[1].ID != "a" {
		t.Fatalf("partial snapshot %v", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	hw := &HWCounters{Slices: 5, ADCConversions: 9}
	tr := &SolveTrace{
		ID: "rq-1", Label: "qa8fm", Method: "cg", Backend: "accel",
		Iterations: []IterationSample{
			{Residual: 0.5, Nanos: 100, HW: hw},
			{Residual: 0.25, Nanos: 90, HW: hw},
		},
	}
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var rows []jsonlRow
	for sc.Scan() {
		var row jsonlRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Iter != 1 || rows[1].Iter != 2 || rows[1].Residual != 0.25 ||
		rows[0].Label != "qa8fm" || rows[0].HW == nil || rows[0].HW.Slices != 5 {
		t.Errorf("rows %+v", rows)
	}
}
