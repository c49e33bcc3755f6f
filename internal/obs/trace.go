package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// HWCounters is the hardware work visible to the performance model,
// extracted from core.ComputeStats (the mapping lives in core so a field
// added there is threaded here too). As cumulative counters it is a
// monotone snapshot; as a per-iteration delta it is the marginal
// hardware cost of one solver iteration.
type HWCounters struct {
	// Slices counts applied vector bit slices (cluster latency is
	// proportional to this, §IV-B).
	Slices int64 `json:"slices"`
	// EarlyTermSaved counts ADC conversions avoided by early
	// termination (settled columns skip quantization, §III-B).
	EarlyTermSaved int64 `json:"earlyTermSaved"`
	// ADCConversions counts ADC column conversions performed.
	ADCConversions int64 `json:"adcConversions"`
	// ANDetected counts AN-code decodes that detected an error
	// (corrected, ambiguous or uncorrectable, §IV-E).
	ANDetected int64 `json:"anDetected"`
	// ANCorrected counts decodes uniquely corrected.
	ANCorrected int64 `json:"anCorrected"`
	// SaturationClamps counts ADC readouts clamped at the rail — the
	// saturation events heavy-fault scenarios produce, which would
	// otherwise silently under-report error magnitude.
	SaturationClamps int64 `json:"saturationClamps,omitempty"`
}

// Sub returns c − o, the delta between two cumulative snapshots.
func (c HWCounters) Sub(o HWCounters) HWCounters {
	return HWCounters{
		Slices:           c.Slices - o.Slices,
		EarlyTermSaved:   c.EarlyTermSaved - o.EarlyTermSaved,
		ADCConversions:   c.ADCConversions - o.ADCConversions,
		ANDetected:       c.ANDetected - o.ANDetected,
		ANCorrected:      c.ANCorrected - o.ANCorrected,
		SaturationClamps: c.SaturationClamps - o.SaturationClamps,
	}
}

// Add accumulates o into c.
func (c *HWCounters) Add(o HWCounters) {
	c.Slices += o.Slices
	c.EarlyTermSaved += o.EarlyTermSaved
	c.ADCConversions += o.ADCConversions
	c.ANDetected += o.ANDetected
	c.ANCorrected += o.ANCorrected
	c.SaturationClamps += o.SaturationClamps
}

// IterationSample is one solver iteration: the relative residual after
// the iteration, the wall-clock it took, and (accel backend only) the
// hardware-counter delta it cost.
type IterationSample struct {
	Residual float64     `json:"residual"`
	Nanos    int64       `json:"nanos"`
	HW       *HWCounters `json:"hw,omitempty"`
}

// SolveTrace is the full per-iteration record of one solve. The sum of
// the per-iteration HW deltas equals the engine's stats window for the
// solve (Recorder.Finish folds any post-iteration tail work — e.g. a
// GMRES restart residual — into the final sample to keep that exact).
type SolveTrace struct {
	ID      string `json:"id,omitempty"`
	Label   string `json:"label,omitempty"`
	Method  string `json:"method,omitempty"`
	Backend string `json:"backend,omitempty"`
	Rows    int    `json:"rows,omitempty"`
	NNZ     int    `json:"nnz,omitempty"`

	Converged bool    `json:"converged"`
	Residual  float64 `json:"residual"`
	// TotalNanos is wall-clock from recorder construction to Finish.
	TotalNanos int64 `json:"totalNanos"`
	// Truncated counts iterations folded into the last sample once the
	// recorder's sample cap was reached (their time and hardware deltas
	// are preserved there, so sums stay exact).
	Truncated  int               `json:"truncated,omitempty"`
	Iterations []IterationSample `json:"iterations"`
	// Span is the request's phase-attributed span tree, when the serving
	// layer traced it — so a /debug/traces entry shows not just how the
	// solve converged but where the request's time and hardware work went
	// (queue, forward hop, programming, solve, refresh), across nodes.
	Span *Span `json:"span,omitempty"`
}

// HWTotal sums the per-iteration hardware deltas; nil when no sample
// carried hardware counters (CSR backend).
func (t *SolveTrace) HWTotal() *HWCounters {
	var total HWCounters
	any := false
	for i := range t.Iterations {
		if hw := t.Iterations[i].HW; hw != nil {
			total.Add(*hw)
			any = true
		}
	}
	if !any {
		return nil
	}
	return &total
}

// DefaultMaxSamples bounds per-trace memory: a 10⁵-iteration solve keeps
// its first DefaultMaxSamples-1 iterations verbatim and aggregates the
// rest into the final sample.
const DefaultMaxSamples = 4096

// Recorder builds a SolveTrace from solver Monitor callbacks. It is
// meant for a single solve on a single goroutine (the solver invokes the
// monitor inline); construct one per solve. The optional sampler reads
// the engine's cumulative hardware counters; the recorder differences
// consecutive snapshots so each sample carries only that iteration's
// work.
type Recorder struct {
	sampler    func() HWCounters
	prev       HWCounters
	start      time.Time
	last       time.Time
	maxSamples int
	span       *Span
	trace      SolveTrace
}

// NewRecorder starts a recorder. sampler may be nil (no hardware
// counters, e.g. the CSR reference backend); when non-nil it is called
// immediately to baseline the cumulative counters.
func NewRecorder(sampler func() HWCounters) *Recorder {
	r := &Recorder{sampler: sampler, maxSamples: DefaultMaxSamples}
	now := time.Now()
	r.start, r.last = now, now
	if sampler != nil {
		r.prev = sampler()
	}
	return r
}

// AttachSpan links the recorder to the request's solve-phase span:
// Finish folds the summed per-iteration hardware deltas onto it (and
// stamps the iteration count), so the span tree charges the solve phase
// exactly the TakeStats window the per-iteration samples sum to.
func (r *Recorder) AttachSpan(s *Span) { r.span = s }

// Observe is the solver.Monitor hook: it appends one sample per
// iteration. The iteration argument is accepted for the Monitor
// signature; samples are stored in call order.
func (r *Recorder) Observe(_ int, residual float64) {
	now := time.Now()
	s := IterationSample{Residual: residual, Nanos: now.Sub(r.last).Nanoseconds()}
	r.last = now
	if r.sampler != nil {
		cur := r.sampler()
		d := cur.Sub(r.prev)
		r.prev = cur
		s.HW = &d
	}
	if len(r.trace.Iterations) < r.maxSamples {
		r.trace.Iterations = append(r.trace.Iterations, s)
		return
	}
	// Cap reached: aggregate into the final sample so totals stay exact.
	lastSample := &r.trace.Iterations[len(r.trace.Iterations)-1]
	lastSample.Residual = s.Residual
	lastSample.Nanos += s.Nanos
	if s.HW != nil {
		if lastSample.HW == nil {
			lastSample.HW = &HWCounters{}
		}
		lastSample.HW.Add(*s.HW)
	}
	r.trace.Truncated++
}

// Finish seals and returns the trace. Any hardware work performed after
// the last iteration callback (e.g. the residual check that ends a GMRES
// restart cycle) is folded into the final sample so the per-iteration
// deltas sum exactly to the engine's stats window for the solve.
//
// The returned trace is a copy that does not reference the recorder: a
// trace kept in a TraceRing must not keep the sampler, and with it the
// engine the sampler reads, reachable after the solve.
func (r *Recorder) Finish(converged bool, residual float64) *SolveTrace {
	if r.sampler != nil && len(r.trace.Iterations) > 0 {
		cur := r.sampler()
		tail := cur.Sub(r.prev)
		r.prev = cur
		if tail != (HWCounters{}) {
			lastSample := &r.trace.Iterations[len(r.trace.Iterations)-1]
			if lastSample.HW == nil {
				lastSample.HW = &HWCounters{}
			}
			lastSample.HW.Add(tail)
		}
	}
	r.trace.Converged = converged
	r.trace.Residual = residual
	r.trace.TotalNanos = time.Since(r.start).Nanoseconds()
	if r.span != nil {
		if hw := r.trace.HWTotal(); hw != nil {
			r.span.SetHW(*hw)
		}
		r.span.SetAttr("iterations", strconv.Itoa(len(r.trace.Iterations)+r.trace.Truncated))
	}
	t := r.trace
	return &t
}

// TraceRing is a fixed-capacity ring of recent solve traces, the backing
// store for /debug/traces. Add and Snapshot are safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []*SolveTrace
	next int
	full bool
}

// NewTraceRing returns a ring holding the last n traces (n < 1 is
// treated as 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*SolveTrace, n)}
}

// Add records a trace, evicting the oldest when full.
func (r *TraceRing) Add(t *SolveTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
}

// Snapshot returns the resident traces, newest first.
func (r *TraceRing) Snapshot() []*SolveTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*SolveTrace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// jsonlRow flattens one iteration with its solve context, so a trace
// file greps and loads row-wise without reassembling nested JSON.
type jsonlRow struct {
	ID       string      `json:"id,omitempty"`
	Label    string      `json:"label,omitempty"`
	Method   string      `json:"method,omitempty"`
	Backend  string      `json:"backend,omitempty"`
	Iter     int         `json:"iter"`
	Residual float64     `json:"residual"`
	Nanos    int64       `json:"nanos"`
	HW       *HWCounters `json:"hw,omitempty"`
}

// WriteJSONL writes the trace as one JSON object per iteration — the
// -trace out.jsonl format of memsim and experiments.
func (t *SolveTrace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.Iterations {
		s := &t.Iterations[i]
		row := jsonlRow{
			ID: t.ID, Label: t.Label, Method: t.Method, Backend: t.Backend,
			Iter: i + 1, Residual: s.Residual, Nanos: s.Nanos, HW: s.HW,
		}
		if err := enc.Encode(&row); err != nil {
			return err
		}
	}
	return nil
}
