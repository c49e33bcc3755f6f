package obs

import (
	"encoding/json"
	"io"
	"strconv"
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

// DefaultMaxSamples bounds a solve span's samples: a 10⁵-iteration solve
// keeps its first DefaultMaxSamples-1 iterations verbatim and aggregates
// the rest into the final sample.
const DefaultMaxSamples = 4096

// Recorder writes one solve's per-iteration samples onto its solve span
// from solver Monitor callbacks. It is meant for a single solve on a
// single goroutine (the solver invokes the monitor inline); construct
// one per solve. The optional sampler reads the engine's cumulative
// hardware counters; the recorder differences consecutive snapshots so
// each sample carries only that iteration's work.
type Recorder struct {
	span      *Span
	sampler   func() HWCounters
	prev      HWCounters
	last      time.Time
	samples   []IterationSample
	truncated int
}

// NewRecorder starts a recorder for span. sampler may be nil (no
// hardware counters, e.g. the CSR reference backend); when non-nil it is
// called immediately to baseline the cumulative counters.
func NewRecorder(span *Span, sampler func() HWCounters) *Recorder {
	r := &Recorder{span: span, sampler: sampler, last: time.Now()}
	if sampler != nil {
		r.prev = sampler()
	}
	return r
}

// Observe is the solver.Monitor hook: it records one sample per
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
	if len(r.samples) < DefaultMaxSamples {
		r.samples = append(r.samples, s)
		return
	}
	// Cap reached: aggregate into the final sample so totals stay exact.
	last := &r.samples[len(r.samples)-1]
	last.Residual = s.Residual
	last.Nanos += s.Nanos
	if s.HW != nil {
		if last.HW == nil {
			last.HW = &HWCounters{}
		}
		last.HW.Add(*s.HW)
	}
	r.truncated++
}

// Finish writes the samples onto the span, with a "truncated" attribute
// counting the iterations folded into the last sample past the cap. Any
// hardware work performed after the last iteration callback (e.g. the
// residual check that ends a GMRES restart cycle) is folded into the
// final sample, so the samples sum exactly to the engine's stats window
// for the solve. The span holds the samples only, never the sampler: a
// span kept for /debug/traces must not keep the engine the sampler reads
// reachable.
func (r *Recorder) Finish() {
	if r.sampler != nil && len(r.samples) > 0 {
		if tail := r.sampler().Sub(r.prev); tail != (HWCounters{}) {
			last := &r.samples[len(r.samples)-1]
			if last.HW == nil {
				last.HW = &HWCounters{}
			}
			last.HW.Add(tail)
		}
	}
	if r.span == nil {
		return
	}
	r.span.mu.Lock()
	r.span.Samples = r.samples
	r.span.mu.Unlock()
	if r.truncated > 0 {
		r.span.SetAttr("truncated", strconv.Itoa(r.truncated))
	}
}

// jsonlRow flattens one iteration with its solve context, so a trace
// file greps and loads row-wise without reassembling nested JSON.
type jsonlRow struct {
	Label    string      `json:"label,omitempty"`
	Method   string      `json:"method,omitempty"`
	Backend  string      `json:"backend,omitempty"`
	Iter     int         `json:"iter"`
	Residual float64     `json:"residual"`
	Nanos    int64       `json:"nanos"`
	HW       *HWCounters `json:"hw,omitempty"`
}

// WriteJSONL writes the span's samples as one JSON object per iteration
// labelled with the solve it belongs to — the -trace out.jsonl format of
// memsim and experiments.
func (s *Span) WriteJSONL(w io.Writer, label, method, backend string) error {
	enc := json.NewEncoder(w)
	for i := range s.Samples {
		sm := &s.Samples[i]
		row := jsonlRow{
			Label: label, Method: method, Backend: backend,
			Iter: i + 1, Residual: sm.Residual, Nanos: sm.Nanos, HW: sm.HW,
		}
		if err := enc.Encode(&row); err != nil {
			return err
		}
	}
	return nil
}
