package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/sparse"
)

// modeled is the paper's hardware model for one solve: accel.EvaluatePlan
// from the operator's plan and the solve's iteration count. It is
// deterministic, so a simulator-only speedup leaves it unchanged.
type modeled struct {
	valid            bool
	solveMS, speedup float64
	initFrac         float64
}

func model(m *sparse.CSR, plan *blocking.Plan, iters int) modeled {
	ev, err := accel.EvaluatePlan("e2ebench", m, plan, false, iters, accel.NewSystem())
	if err != nil {
		return modeled{}
	}
	return modeled{valid: true, solveMS: ev.SolveTime * 1e3, speedup: ev.Speedup(), initFrac: ev.InitOverhead()}
}

// ledgerOrder lists the ledger's layers in request order. A traced
// operation fills only the rows its path has.
var ledgerOrder = []string{
	"serve.transport", "serve.handler_self", "sparse.parse", "serve.fingerprint",
	"serve.acquire", "blocking.preprocess", "accel.program", "jobs.queue",
	"solver.self", "accel.apply", "bench.client",
}

type ledgerRow struct {
	layer                     string
	perCallMS, calls, perOpMS float64
}

// layers is the traced run's per-layer view.
type layers struct {
	metrics            []metric
	rows               []ledgerRow
	sum                float64
	refP50, tracedP50  float64
	refN, tracedN, trN int
	untracedN          int
	mismatches         int
	modelN             int
}

func buildLayers(phA phase, rt0, rt1 runtimeSample, phB phase, evictions int64,
	traces []*opTrace, setupTr *opTrace, refBefore, refAfter []float64, steal float64) *layers {
	l := &layers{}

	// Split phase B into its untraced reference operations and the
	// traced ones; the first sentinelOps indices form the fixed prefix
	// the deterministic counts are taken over.
	var refLat, trLat, kbIn, kbOut, queue []float64
	var traced, prefix []*outcome
	hits, cached := 0, 0
	for i := range phB.outs {
		oc := &phB.outs[i]
		if oc.cached {
			cached++
			if oc.hit {
				hits++
			}
		}
		if oc.job {
			queue = append(queue, oc.queueMS)
		}
		if oc.reqBytes > 0 {
			kbIn = append(kbIn, float64(oc.reqBytes)/1024)
			kbOut = append(kbOut, float64(oc.respBytes)/1024)
		}
		if oc.idx%2 == 0 {
			l.untracedN++
			if oc.ok {
				refLat = append(refLat, ms(oc.latency))
			}
			continue
		}
		l.tracedN++
		if !oc.ok || oc.traced == nil {
			continue
		}
		traced = append(traced, oc)
		trLat = append(trLat, ms(oc.latency))
		if oc.traced.replayMismatch {
			l.mismatches++
		}
		if oc.idx < sentinelOps {
			prefix = append(prefix, oc)
		}
	}
	l.refP50, l.refN = median(refLat), len(refLat)
	l.tracedP50, l.trN = median(trLat), len(trLat)

	// Ledger: per layer, the median over traced operations of its time
	// per operation and of its calls per operation.
	for _, layer := range ledgerOrder {
		var perOp, calls []float64
		for _, oc := range traced {
			if c, ok := oc.traced.ledger[layer]; ok {
				perOp = append(perOp, c.ms)
				calls = append(calls, float64(c.calls))
			}
		}
		if len(perOp) == 0 {
			continue
		}
		r := ledgerRow{layer: layer, perOpMS: median(perOp), calls: median(calls)}
		if r.calls > 0 {
			r.perCallMS = r.perOpMS / r.calls
		}
		l.rows = append(l.rows, r)
		l.sum += r.perOpMS
	}
	unattributed, overhead, applyShare := 0.0, 0.0, 0.0
	if l.refP50 > 0 {
		unattributed = (l.refP50 - l.sum) / l.refP50
		overhead = (l.tracedP50 - l.refP50) / l.refP50
	}
	for _, r := range l.rows {
		if r.layer == "accel.apply" && l.sum > 0 {
			applyShare = r.perOpMS / l.sum
		}
	}

	// Per-call span timings across all traced operations and the set-up
	// replay.
	durs := map[string][]float64{}
	var solverSelf []float64
	for _, t := range append([]*opTrace{setupTr}, traces...) {
		for i, s := range t.spans {
			if s.End < s.Start {
				continue // a span left open by a failed operation
			}
			durs[s.Name] = append(durs[s.Name], t.ms(i))
			if s.Name == "solver.CG" || s.Name == "solver.Refine" {
				solverSelf = append(solverSelf, t.selfMS(i))
			}
		}
	}
	spanMed := func(name string) (float64, int) { return median(durs[name]), len(durs[name]) }

	// Deterministic counts over the fixed prefix.
	var applies, iters, outer, refines, events, clusters, modelN int
	var blocked, conv, skipped, slices, detected, corrected float64
	var mSolve, mSpeed, mInit float64
	for _, oc := range prefix {
		t := oc.traced
		applies += t.applies
		iters += oc.iters
		events += t.events
		clusters += t.clusters
		if t.plan != nil {
			blocked += t.plan.Stats.Efficiency()
		}
		if t.refine {
			refines++
			outer += t.outer
		}
		conv += float64(t.stats.Conversions)
		skipped += float64(t.stats.ConversionsSkipped)
		slices += float64(t.stats.VectorSlicesApplied)
		an := t.stats.AN
		detected += float64(an.Corrected + an.Ambiguous + an.Uncorrectable)
		corrected += float64(an.Corrected)
		if t.model.valid {
			modelN++
			mSolve += t.model.solveMS
			mSpeed += t.model.speedup
			mInit += t.model.initFrac
		}
	}
	// Conversions per busy second of Apply, over every traced operation.
	var allConv, applySec float64
	for _, oc := range traced {
		allConv += float64(oc.traced.stats.Conversions)
	}
	for _, d := range durs["accel.Apply"] {
		applySec += d / 1e3
	}
	n := len(prefix)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l.modelN = modelN

	var transport, handlerSelf []float64
	for _, oc := range traced {
		if c, ok := oc.traced.ledger["serve.transport"]; ok {
			transport = append(transport, c.ms)
			handlerSelf = append(handlerSelf, oc.traced.ledger["serve.handler_self"].ms)
		}
	}
	// The montecarlo layer's program and solve are the trial replay's,
	// reported where the workload called the layer.
	mcProgram, mcSolve, mcN := 0.0, 0.0, 0
	if len(durs["montecarlo.Study.Run"]) > 0 {
		mcProgram, mcN = spanMed("accel.NewEngine")
		mcSolve, _ = spanMed("solver.CG")
	}
	first, _, firstN := sentinel(phB.outs)
	nA := float64(max(len(phA.outs), 1))
	gcFrac := div(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	host := append(append([]float64(nil), refBefore...), refAfter...)

	add := func(name, unit string, v float64, samples int, note string) {
		l.metrics = append(l.metrics, metric{name: name, value: v, unit: unit, n: samples, note: note})
	}
	addSpan := func(name, unit, span, note string) {
		v, k := spanMed(span)
		add(name, unit, v, k, note)
	}
	add("serve.transport_ms", "ms", median(transport), len(transport), "loopback minus in-process, server time removed from each")
	add("serve.handler_self_ms", "ms", median(handlerSelf), len(handlerSelf), "ServeHTTP minus replayed parse/fingerprint and the handler's own program+solve(+queue) timings")
	add("serve.request_kb", "kB", median(kbIn), len(kbIn), "")
	add("serve.response_kb", "kB", median(kbOut), len(kbOut), "")
	addSpan("sparse.parse_ms", "ms", "sparse.parse", "JSON decode + ReadMatrixMarket + ToCSR")
	addSpan("serve.fingerprint_ms", "ms", "serve.Fingerprint", "")
	addSpan("serve.acquire_ms", "ms", "serve.Cache.Acquire", "hit lease")
	add("serve.hit_ratio", "fraction", div(float64(hits), float64(cached)), cached, "engine-cache hits reported by the server")
	add("serve.evictions_per_op", "count", div(float64(evictions), float64(len(phB.outs))), len(phB.outs), "")
	add("jobs.queue_ms", "ms", median(queue), len(queue), "job view queue_ms")
	add("jobs.events_per_job", "count", div(float64(events), float64(n)), n, "SSE events, done included")
	addSpan("blocking.preprocess_ms", "ms", "blocking.Preprocess", "")
	add("blocking.blocked_frac", "fraction", div(blocked, float64(n)), n, "")
	addSpan("accel.program_ms", "ms", "accel.NewEngine", "")
	addSpan("accel.fork_ms", "ms", "accel.Fork", "")
	add("accel.clusters", "count", div(float64(clusters), float64(n)), n, "")
	addSpan("accel.apply_ms", "ms", "accel.Apply", "")
	add("accel.applies_per_solve", "count", div(float64(applies), float64(n)), n, "")
	add("accel.apply_share", "fraction", applyShare, len(traced), "Apply's share of the ledger sum")
	add("core.conversions_per_apply", "count", div(conv, float64(applies)), applies, "")
	add("core.slices_per_apply", "count", div(slices, float64(applies)), applies, "")
	add("core.early_term_saved_frac", "fraction", div(skipped, conv+skipped), applies, "ADC conversions skipped by early termination")
	add("core.conversions_per_s", "1/s", div(allConv, applySec), len(durs["accel.Apply"]), "per busy second of Apply")
	add("ancode.detected_per_solve", "count", div(detected, float64(n)), n, "")
	add("ancode.corrected_per_solve", "count", div(corrected, float64(n)), n, "")
	add("solver.iterations_per_solve", "count", div(float64(iters), float64(n)), n, "inner iterations for refine")
	add("solver.self_ms", "ms", median(solverSelf), len(solverSelf), "solve span minus its Apply spans")
	add("solver.refine_outer", "count", div(float64(outer), float64(refines)), refines, "")
	add("solver.iterations_sentinel", "count", float64(first), firstN, fmt.Sprintf("iterations of ops 0..%d, fixed per seed", sentinelOps-1))
	add("montecarlo.program_ms", "ms", mcProgram, mcN, "")
	add("montecarlo.solve_ms", "ms", mcSolve, mcN, "")
	add("runtime.alloc_mb_per_op", "MB", (rt1.allocBytes-rt0.allocBytes)/(1<<20)/nA, len(phA.outs), "untraced warm phase")
	add("runtime.gc_cpu_frac", "fraction", gcFrac, len(phA.outs), "untraced warm phase")
	add("ledger.unattributed_frac", "fraction", unattributed, l.refN, "")
	add("ledger.tracing_overhead_frac", "fraction", overhead, len(trLat), "")
	add("model.accel_solve_ms", "ms", div(mSolve, float64(modelN)), modelN, "modeled")
	add("model.speedup_vs_p100", "ratio", div(mSpeed, float64(modelN)), modelN, "modeled")
	add("model.init_overhead_frac", "fraction", div(mInit, float64(modelN)), modelN, "modeled")
	add("host.ref_loop_ms", "ms", median(host), len(host), "diagnostic only")
	add("host.steal_frac", "fraction", steal, 1, "diagnostic only")
	return l
}

func (l *layers) printLedger(w io.Writer) {
	fmt.Fprintln(w, "layer ledger (traced ops; median per op):")
	fmt.Fprintf(w, "  %-22s %12s %10s %12s\n", "layer", "self ms/call", "calls/op", "ms/op")
	rows := append([]ledgerRow(nil), l.rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].perOpMS > rows[j].perOpMS })
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12.4f %10.2f %12.4f\n", r.layer, r.perCallMS, r.calls, r.perOpMS)
	}
	fmt.Fprintf(w, "  %-22s %36.4f\n", "sum", l.sum)
	fmt.Fprintf(w, "  untraced latency_p50_ms %.4f (n=%d); traced op p50 %.4f (n=%d)\n", l.refP50, l.refN, l.tracedP50, l.trN)
	printMetrics(w, l.pick("ledger."))
}

// pick returns the metrics whose names start with prefix.
func (l *layers) pick(prefix string) []metric {
	var out []metric
	for _, m := range l.metrics {
		if strings.HasPrefix(m.name, prefix) {
			out = append(out, m)
		}
	}
	return out
}

func (l *layers) printModeled(w io.Writer) {
	fmt.Fprintf(w, "modeled hardware (accel.EvaluatePlan, deterministic; %d solves of ops 0..%d) beside host wall time:\n", l.modelN, sentinelOps-1)
	printMetrics(w, l.pick("model."))
	fmt.Fprintf(w, "  host op latency p50 (measured, not modeled) %s ms\n", fmtVal(l.refP50))
}
