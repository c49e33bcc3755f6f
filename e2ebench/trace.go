package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"memsci/internal/accel"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory and are written out when the traced run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root
	Op     int64  `json:"op"`     // -1 for the set-up replay
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// opTrace holds one operation's spans. It belongs to the goroutine
// running the operation; IDs are indices into spans.
type opTrace struct {
	op    int64
	epoch time.Time
	spans []span
}

func newOpTrace(op int64, epoch time.Time) *opTrace { return &opTrace{op: op, epoch: epoch} }

// begin opens a span under parent (-1 for a root). A nil trace records
// nothing, so the untraced path runs the same code.
func (t *opTrace) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *opTrace) end(id int) {
	if t != nil {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

func (t *opTrace) ms(id int) float64 { return float64(t.spans[id].End-t.spans[id].Start) / 1e6 }

// selfMS is span id's duration minus the time its direct children cover.
func (t *opTrace) selfMS(id int) float64 {
	self := t.ms(id)
	for i := id + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == id {
			self -= t.ms(i)
		}
	}
	return self
}

// childMS sums the durations of id's direct children named name.
func (t *opTrace) childMS(id int, name string) (total float64, n int) {
	for i := id + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == id && t.spans[i].Name == name {
			total += t.ms(i)
			n++
		}
	}
	return total, n
}

// timedOp is a solver.Operator over *accel.Engine that records a span
// around every Apply, as a child of parent.
type timedOp struct {
	eng     *accel.Engine
	tr      *opTrace
	parent  int
	applies int
}

func (o *timedOp) Rows() int { return o.eng.Rows() }
func (o *timedOp) Cols() int { return o.eng.Cols() }

func (o *timedOp) Apply(y, x []float64) {
	id := o.tr.begin(o.parent, "accel.Apply")
	o.eng.Apply(y, x)
	o.tr.end(id)
	o.applies++
}

// runtimeBase is where the traced run's untraced-only warm phase takes its
// operation indices, apart from the seeded sequence 0, 1, 2, ...
const runtimeBase = 1 << 40

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(x metrics.Sample) float64 {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			return float64(x.Value.Uint64())
		case metrics.KindFloat64:
			return x.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// runTraced is the separate traced invocation. It replays the seeded
// operations: first a quarter of the time untraced only (the Go runtime's
// allocation and GC share per operation), then the rest with even indices
// untraced and odd ones traced, so the untraced reference latency and the
// traced operations see the same host.
func runTraced(w io.Writer, wl workload, o options) (*result, error) {
	sys, _, err := setUp(wl, o, 1)
	if err != nil {
		return nil, err
	}
	defer sys.close()

	epoch := time.Now()
	setupTr := newOpTrace(-1, epoch)
	if err := sys.setupTrace(setupTr); err != nil {
		return nil, fmt.Errorf("replaying the set-up: %w", err)
	}

	refBefore := refLoop()
	steal0, stealErr := readCPUStat()
	durA := seconds(o.seconds / 4)
	rt0 := readRuntime()
	phA := runPhase(wl.clients, durA, counter(runtimeBase), sys.op)
	rt1 := readRuntime()

	var (
		mu     sync.Mutex
		traces []*opTrace
	)
	ev0 := sys.evictions()
	phB := runPhase(wl.clients, seconds(o.seconds)-durA, counter(0), func(idx int64) outcome {
		if idx%2 == 0 {
			return sys.op(idx)
		}
		tr := newOpTrace(idx, epoch)
		oc := sys.tracedOp(idx, tr)
		mu.Lock()
		traces = append(traces, tr)
		mu.Unlock()
		return oc
	})
	evictions := sys.evictions() - ev0
	refAfter := refLoop()
	steal := stealFraction(steal0, stealErr)

	lr := buildLayers(phA, rt0, rt1, phB, evictions, traces, setupTr, refBefore, refAfter, steal)
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%g trace=1 clients=%d\n", o.workload, o.seed, o.seconds, wl.clients)
	fmt.Fprintf(w, "traced run: %d traced and %d untraced interleaved ops, %d untraced warm ops\n",
		lr.tracedN, lr.untracedN, len(phA.outs))
	lr.printLedger(w)
	lr.printModeled(w)
	fmt.Fprintln(w, "per-layer metrics:")
	printMetrics(w, lr.metrics)
	printSentinel(w, phB.outs)
	if lr.mismatches > 0 {
		fmt.Fprintf(w, "WARNING: %d traced replays disagreed with the answer's iteration count; the ledger mixes different work\n", lr.mismatches)
	}
	printHost(w, refBefore, refAfter, steal)

	path, err := writeSpans(o, setupTr, traces)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "spans written to", path)

	res := &result{correct: true, metrics: lr.metrics}
	for _, oc := range append(phA.outs, phB.outs...) {
		res.attempted++
		if !oc.ok {
			res.failed++
		}
		if oc.wrong {
			res.correct = false
		}
	}
	return res, nil
}

// writeSpans writes every recorded span as one JSON document.
func writeSpans(o options, setupTr *opTrace, traces []*opTrace) (string, error) {
	sort.Slice(traces, func(i, j int) bool { return traces[i].op < traces[j].op })
	all := append([]span(nil), setupTr.spans...)
	for _, t := range traces {
		all = append(all, t.spans...)
	}
	if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
		return "", fmt.Errorf("span directory: %w", err)
	}
	path := filepath.Join(o.spanDir, fmt.Sprintf("e2ebench-spans-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.workload, o.seed, all})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("writing %s: %w", path, werr)
	}
	return path, nil
}
