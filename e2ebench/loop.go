package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memsci/internal/blocking"
	"memsci/internal/core"
)

// workload is one traffic mix, named by its key in workloads.
type workload struct {
	// clients is the number of closed-loop callers: 1 where latency is
	// the point, 2 (the host's core count) where capacity is.
	clients int
	// setup builds the system under test from o.seed, primes its caches
	// and runs the warm-up operations.
	setup func(o options) (system, error)
}

// system is a set-up workload.
type system interface {
	// op runs operation idx untraced: its inputs come from (seed, idx),
	// and it returns once the answer is verified or has failed.
	op(idx int64) outcome
	// tracedOp runs operation idx with spans around every public call
	// the benchmark makes: the same request over loopback and through
	// in-process ServeHTTP, then the direct replay of the layers.
	tracedOp(idx int64, tr *opTrace) outcome
	// setupTrace replays the set-up's programming with spans (traced
	// runs only).
	setupTrace(tr *opTrace) error
	// evictions reports the engine cache's eviction counter (0 when the
	// workload bypasses the cache).
	evictions() int64
	close()
}

var workloads = map[string]workload{
	"solve-hit": {clients: 1, setup: setupSolveHit},
	"jobs-miss": {clients: jobClients, setup: setupJobsMiss},
	"mc-inject": {clients: mcClients, setup: setupMCInject},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is one operation's result.
type outcome struct {
	idx int64
	// ok: answered and the answer passed its check. wrong: an answer came
	// back and failed its check (a subset of !ok).
	ok, wrong bool
	err       error
	// latency is client-observed, from send to verified answer.
	latency time.Duration
	// iters is the solver iteration count (inner iterations for refine,
	// the returned count for a Monte-Carlo trial).
	iters int
	// cached is set when the server reported an engine-cache outcome,
	// and hit is that outcome.
	cached, hit bool
	// job is set for async jobs; queueMS is their job view's queue wait.
	job     bool
	queueMS float64
	// reqBytes and respBytes count the HTTP bodies of the operation.
	reqBytes, respBytes int

	traced *tracedInfo
}

// tracedInfo is what a traced operation adds to its outcome.
type tracedInfo struct {
	events, outer, applies, clusters int
	refine                           bool
	stats                            core.ComputeStats
	plan                             *blocking.Plan
	model                            modeled
	// replayMismatch is set when the direct replay's iteration count
	// differs from the answer the system returned.
	replayMismatch bool
	// ledger holds this operation's per-layer time (ms) and call counts,
	// keyed by the names in ledgerOrder.
	ledger map[string]ledgerCell
}

type ledgerCell struct {
	ms    float64
	calls int
}

func failed(idx int64, err error) outcome { return outcome{idx: idx, err: err} }

// phase is one closed-loop measured phase.
type phase struct {
	outs    []outcome
	elapsed time.Duration
}

// runPhase runs clients closed-loop callers until dur has passed: each
// takes the next operation index from next and waits for its answer
// before sending again. Operations in flight at the deadline finish and
// count; elapsed ends when the last caller returns.
func runPhase(clients int, dur time.Duration, next func() int64, do func(int64) outcome) phase {
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			for time.Now().Before(deadline) {
				local = append(local, do(next()))
			}
			mu.Lock()
			outs = append(outs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(outs, func(i, j int) bool { return outs[i].idx < outs[j].idx })
	return phase{outs: outs, elapsed: elapsed}
}

// counter returns a generator of consecutive operation indices from base.
func counter(base int64) func() int64 {
	var n atomic.Int64
	return func() int64 { return base + n.Add(1) - 1 }
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile interpolates linearly between the order statistics of the
// sorted sample s (0 for an empty sample).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// splitmix derives an independent seed for (seed, idx).
func splitmix(seed, idx int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx)*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
