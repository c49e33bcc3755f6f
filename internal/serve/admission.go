package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"memsci/internal/jobs"
	"memsci/internal/obs"
)

// Admission-control defaults. The queue is deliberately small: a solve
// is seconds of work, so a deep queue only converts overload into
// latency. Shedding early with Retry-After lets the load balancer (which
// also watches /readyz) route around the hot node.
const (
	DefaultQueueDepth    = 64
	DefaultMaxQueueAge   = 30 * time.Second
	DefaultBatchMax      = 8
	DefaultJobCapacity   = jobs.DefaultCapacity
	apiKeyHeader         = "X-API-Key"
	anonymousTenant      = "anonymous"
	retryAfterHeaderName = "Retry-After"
)

// queuedJob is one admitted async solve waiting for a worker, and the
// unit execute runs: handleSolve passes a synchronous solve in the same
// form, with no job. id names the solve in its response, trace and log
// line — the job ID, or a sync solve's request ID. span is the root span
// (nil with tracing off); the worker charges a job's submit→dequeue wait
// to a "queue" child at dequeue time.
type queuedJob struct {
	job      *jobs.Job
	id       string
	spec     *solveSpec
	enqueued time.Time
	span     *obs.Span
}

// workQueue is the bounded FIFO between job submission and the worker
// pool. It supports selective extraction (TakeMatching) so a worker
// that dequeues a job can coalesce compatible queued jobs into one
// multi-RHS batch.
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*queuedJob
	depth  int
	closed bool
}

func newWorkQueue(depth int) *workQueue {
	q := &workQueue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends the item, failing when the queue is full or closed — the
// load-shed signal for 503 + Retry-After.
func (q *workQueue) Push(item *queuedJob) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.depth {
		return false
	}
	q.items = append(q.items, item)
	q.cond.Signal()
	return true
}

// Pop blocks until an item is available or the queue is closed (nil).
func (q *workQueue) Pop() *queuedJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil
	}
	item := q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return item
}

// TakeMatching removes and returns up to max queued items satisfying
// match, preserving the order of the rest.
func (q *workQueue) TakeMatching(match func(*queuedJob) bool, max int) []*queuedJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 || len(q.items) == 0 {
		return nil
	}
	var taken []*queuedJob
	kept := q.items[:0]
	for _, item := range q.items {
		if len(taken) < max && match(item) {
			taken = append(taken, item)
			continue
		}
		kept = append(kept, item)
	}
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = kept
	return taken
}

// Len returns the current queue depth.
func (q *workQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close seals the queue, wakes all workers, and returns the items still
// queued so the caller can shed them.
func (q *workQueue) Close() []*queuedJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	rest := q.items
	q.items = nil
	q.cond.Broadcast()
	return rest
}

// tenantLimiter is a per-API-key token bucket: Rate tokens per second
// refill up to Burst, one token per admitted solve. The bucket map is
// pruned of long-idle tenants so an API-key scan cannot grow it without
// bound.
type tenantLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tenantBucket
}

type tenantBucket struct {
	tokens float64
	last   time.Time
}

const tenantMapBound = 4096

func newTenantLimiter(rate float64, burst int) *tenantLimiter {
	if rate <= 0 {
		return nil // quotas disabled
	}
	if burst < 1 {
		burst = int(math.Max(1, math.Ceil(rate)))
	}
	return &tenantLimiter{rate: rate, burst: float64(burst), buckets: make(map[string]*tenantBucket)}
}

// allow spends one token for the tenant, reporting the wait until the
// next token when denied.
func (l *tenantLimiter) allow(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= tenantMapBound {
			l.pruneLocked(now)
		}
		b = &tenantBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens = math.Min(l.burst, b.tokens+l.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// pruneLocked drops buckets idle long enough to have refilled — they are
// indistinguishable from fresh ones.
func (l *tenantLimiter) pruneLocked(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	for k, b := range l.buckets {
		if now.Sub(b.last) > idle {
			delete(l.buckets, k)
		}
	}
}

// checkQuota enforces the per-tenant token bucket (when configured) for
// one solve admission, writing 429 + Retry-After on denial. Forwarded
// requests are exempt: the client-facing entry node already charged the
// tenant.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request, tenant string) bool {
	if s.tenants == nil || isForwarded(r) {
		return true
	}
	ok, wait := s.tenants.allow(tenant, time.Now())
	if ok {
		return true
	}
	s.metrics.quotaDenied.Inc()
	w.Header().Set(retryAfterHeaderName, retryAfterSeconds(wait))
	s.fail(w, http.StatusTooManyRequests,
		fmt.Sprintf("tenant %q over quota (%.3g solves/s, burst %d)", tenant, s.tenants.rate, int(s.tenants.burst)))
	return false
}

// acquireSlot admits one synchronous solve to the bounded execution
// pool. Sync solves waiting for a slot count against the same queue
// depth as async jobs: past it the request is shed instead of queued —
// the queue is never unbounded.
func (s *Server) acquireSlot(ctx context.Context) (release func(), ok bool) {
	if int(s.syncWaiting.Add(1)) > s.cfg.QueueDepth {
		s.syncWaiting.Add(-1)
		return nil, false
	}
	defer s.syncWaiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-ctx.Done():
		return nil, false
	}
}

// shedSync writes the 503 + Retry-After load-shed response.
func (s *Server) shedSync(w http.ResponseWriter) {
	s.metrics.sheds.Inc()
	w.Header().Set(retryAfterHeaderName, retryAfterSeconds(s.estimatedDrain()))
	s.fail(w, http.StatusServiceUnavailable, "server saturated; retry later")
}

// estimatedDrain guesses how long the backlog needs: queued work divided
// by concurrency, scaled by the median observed solve time (1s floor).
func (s *Server) estimatedDrain() time.Duration {
	backlog := s.queue.Len() + int(s.syncWaiting.Load()) + len(s.sem)
	perSolve := s.metrics.solveSeconds.Quantile(0.5)
	if perSolve <= 0 || math.IsNaN(perSolve) {
		perSolve = 1
	}
	est := time.Duration(float64(backlog) / float64(max(1, s.cfg.MaxConcurrent)) * perSolve * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// retryAfterSeconds renders a duration as the integral seconds form of
// the Retry-After header (minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
