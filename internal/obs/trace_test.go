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

// sampleTotal sums a span's per-iteration hardware deltas; nil when no
// sample carries any.
func sampleTotal(s *Span) *HWCounters {
	var total *HWCounters
	for _, sm := range s.Samples {
		if sm.HW != nil {
			if total == nil {
				total = &HWCounters{}
			}
			total.Add(*sm.HW)
		}
	}
	return total
}

func TestRecorderDeltasSumToWindow(t *testing.T) {
	fc := &fakeCounters{}
	sp := NewSpan("n", "solve")
	rec := NewRecorder(sp, fc.sample)
	const iters = 17
	for k := 1; k <= iters; k++ {
		fc.step() // the "Apply" work of iteration k
		rec.Observe(k, 1.0/float64(k))
	}
	fc.step() // tail work after the last iteration (GMRES-style restart residual)
	rec.Finish()

	if len(sp.Samples) != iters {
		t.Fatalf("%d samples want %d", len(sp.Samples), iters)
	}
	total := sampleTotal(sp)
	if total == nil {
		t.Fatal("no hardware totals")
	}
	if *total != fc.cum {
		t.Errorf("delta sum %+v != cumulative window %+v", *total, fc.cum)
	}
	if sp.Samples[iters-1].Residual != 1.0/iters {
		t.Errorf("last sample residual %g want %g", sp.Samples[iters-1].Residual, 1.0/iters)
	}
	if sp.Samples[0].HW.Slices != 3 || sp.Samples[iters-1].HW.Slices != 6 {
		t.Errorf("per-iteration deltas wrong: first %+v last %+v (tail fold expected in last)",
			sp.Samples[0].HW, sp.Samples[iters-1].HW)
	}
	if _, ok := sp.Attrs["truncated"]; ok {
		t.Error("an untruncated span carries a truncated attribute")
	}
}

// TestFinishReleasesSampler pins that a finished solve span does not
// keep the recorder's sampler reachable. In serving the sampler reads
// the leased engine's counters, and the /debug/traces ring holds span
// trees long after the engine cache evicted their engines.
func TestFinishReleasesSampler(t *testing.T) {
	collected := make(chan struct{})
	sp := func() *Span {
		fc := &fakeCounters{}
		runtime.SetFinalizer(fc, func(*fakeCounters) { close(collected) })
		sp := NewSpan("n", "solve")
		rec := NewRecorder(sp, fc.sample)
		fc.step()
		rec.Observe(1, 0.5)
		rec.Finish()
		return sp
	}()
	for attempt := 0; attempt < 20; attempt++ {
		runtime.GC()
		select {
		case <-collected:
			if len(sp.Samples) != 1 || sp.Samples[0].HW.Slices != 3 {
				t.Fatalf("finished span lost its samples: %+v", sp.Samples)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(sp)
	t.Fatal("the sampler's target stays reachable while the finished span is held")
}

func TestRecorderNilSampler(t *testing.T) {
	sp := NewSpan("n", "solve")
	rec := NewRecorder(sp, nil)
	rec.Observe(1, 0.5)
	rec.Finish()
	if len(sp.Samples) != 1 || sp.Samples[0].HW != nil {
		t.Fatalf("nil-sampler samples %+v", sp.Samples)
	}
	if sp.HW != nil {
		t.Error("recorder attached hardware to the span without a sampler")
	}
}

// Past the sample cap, iterations aggregate into the final sample; total
// time and hardware deltas stay exact, and the span counts the folded
// iterations.
func TestRecorderTruncation(t *testing.T) {
	fc := &fakeCounters{}
	sp := NewSpan("n", "solve")
	rec := NewRecorder(sp, fc.sample)
	const iters = DefaultMaxSamples + 100
	for k := 1; k <= iters; k++ {
		fc.step()
		rec.Observe(k, 1/float64(k))
	}
	rec.Finish()
	if len(sp.Samples) != DefaultMaxSamples {
		t.Fatalf("%d samples want cap %d", len(sp.Samples), DefaultMaxSamples)
	}
	if got := sp.Attrs["truncated"]; got != "100" {
		t.Errorf("truncated attribute %q want 100", got)
	}
	if total := sampleTotal(sp); *total != fc.cum {
		t.Errorf("truncated totals drifted: %+v vs %+v", *total, fc.cum)
	}
	if got := sp.Samples[DefaultMaxSamples-1].Residual; got != 1/float64(iters) {
		t.Errorf("folded sample residual %g want the last iteration's %g", got, 1/float64(iters))
	}
}

func TestWriteJSONL(t *testing.T) {
	hw := &HWCounters{Slices: 5, ADCConversions: 9}
	sp := &Span{Samples: []IterationSample{
		{Residual: 0.5, Nanos: 100, HW: hw},
		{Residual: 0.25, Nanos: 90, HW: hw},
	}}
	var sb strings.Builder
	if err := sp.WriteJSONL(&sb, "qa8fm", "cg", "accel"); err != nil {
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
		rows[0].Label != "qa8fm" || rows[0].Method != "cg" || rows[0].Backend != "accel" ||
		rows[0].HW == nil || rows[0].HW.Slices != 5 {
		t.Errorf("rows %+v", rows)
	}
	// The row layout is the -trace file format: key order pinned.
	if first, _, _ := strings.Cut(sb.String(), "\n"); first !=
		`{"label":"qa8fm","method":"cg","backend":"accel","iter":1,"residual":0.5,"nanos":100,"hw":{"slices":5,"earlyTermSaved":0,"adcConversions":9,"anDetected":0,"anCorrected":0}}` {
		t.Errorf("row layout changed: %s", first)
	}
}

// A traced solve span's samples survive the JSON round trip a forwarded
// response takes, so the entry node's tree keeps the owner's samples.
func TestSpanSamplesJSONRoundTrip(t *testing.T) {
	sp := NewSpan("n", "solve")
	rec := NewRecorder(sp, nil)
	rec.Observe(1, 0.5)
	rec.Observe(2, 0.125)
	rec.Finish()
	sp.End()
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"samples":[{"residual":0.5,`) {
		t.Fatalf("samples missing from rendering: %s", raw)
	}
	var back Span
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != 2 || back.Samples[1].Residual != 0.125 {
		t.Fatalf("samples lost in round trip: %+v", back.Samples)
	}
}
