// Package jobs is the async-solve substrate for memserve: a bounded
// in-memory store of jobs with TTL-based garbage collection, and a
// per-job event log that bridges the solver's per-iteration Monitor
// callbacks to any number of late-joining streaming subscribers (the SSE
// endpoint). The iterative workloads the accelerator targets are
// long-running multi-iteration solves, so the serving layer needs
// submit → poll/stream rather than request/response only; this package
// holds the lifecycle state machine and nothing HTTP-shaped.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// State is a job lifecycle state. Transitions are strictly
// Queued → Running → one terminal state, except Shed which can follow
// Queued directly (age-based shedding happens at dequeue).
type State string

// Job lifecycle states. Done, Failed, Timeout, and Shed are terminal.
const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the solve.
	StateRunning State = "running"
	// StateDone: solve completed (converged or not — see the result).
	StateDone State = "done"
	// StateFailed: solve returned an error or panicked.
	StateFailed State = "failed"
	// StateTimeout: the per-solve deadline expired mid-solve.
	StateTimeout State = "timeout"
	// StateShed: dropped by admission control before running (queued
	// longer than the age bound, or drained at shutdown).
	StateShed State = "shed"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateTimeout, StateShed:
		return true
	}
	return false
}

// EventIteration and EventDone are the two event types an EventLog
// carries: one per counted solver iteration, and exactly one terminal
// event.
const (
	EventIteration = "iteration"
	EventDone      = "done"
)

// Event is one entry in a job's event stream.
type Event struct {
	Type string `json:"type"`
	// Iteration and Residual are set on iteration events (the solver
	// Monitor arguments).
	Iteration int     `json:"iteration,omitempty"`
	Residual  float64 `json:"residual,omitempty"`
	// State is set on the done event.
	State State `json:"state,omitempty"`
}

// DefaultMaxEvents bounds the per-job replay buffer, mirroring the trace
// recorder's sample cap: a pathological 10⁵-iteration solve keeps its
// first DefaultMaxEvents-1 iteration events verbatim for replay (later
// ones are still delivered live to connected subscribers) plus the
// terminal event.
const DefaultMaxEvents = 4096

// EventLog is an append-only bounded event sequence with edge-triggered
// change notification. Appenders call Append/Close; subscribers poll
// Since in a loop, blocking on the returned channel between polls —
// there is no per-subscriber goroutine or buffer to overflow, and a
// subscriber that joins late replays the retained prefix first.
//
// A finished job's log stays resident for the job's TTL, so the log
// keeps each iteration event as an (iteration, residual) pair, trims
// the pairs to length when it closes, and keeps of the terminal event
// only its state. Closed logs share one closed notify channel.
type EventLog struct {
	mu      sync.Mutex
	iters   []iterSample
	final   State // terminal state, once closed
	dropped int
	closed  bool
	notify  chan struct{}
}

// iterSample is one retained iteration event.
type iterSample struct {
	iteration int
	residual  float64
}

// closedNotify is the notify channel of every closed log: closed, so
// a subscriber selecting on it never blocks.
var closedNotify = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// NewEventLog returns an empty open log.
func NewEventLog() *EventLog {
	return &EventLog{notify: make(chan struct{})}
}

// Append records an iteration event (its Iteration and Residual; the
// type is always EventIteration) and wakes subscribers. Appends after
// Close are ignored. Past the retention cap the event is counted
// dropped but subscribers blocked in Since still wake and observe the
// log unchanged — they rely on the terminal event for completeness.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if len(l.iters) >= DefaultMaxEvents-1 {
		l.dropped++
	} else {
		l.iters = append(l.iters, iterSample{e.Iteration, e.Residual})
	}
	close(l.notify)
	l.notify = make(chan struct{})
}

// Close appends the terminal event, of which the log keeps the state,
// and seals the log. Subsequent Close calls are ignored.
func (l *EventLog) Close(final Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.final = final.State
	l.iters = append([]iterSample(nil), l.iters...)
	close(l.notify)
	l.notify = closedNotify
}

// Since returns the events at index >= from, a channel that is closed on
// the next append/close (valid only when no new events were returned),
// and whether the log is sealed. Typical subscriber loop:
//
//	for i := 0; ; {
//		evs, next, done := log.Since(i)
//		emit(evs); i += len(evs)
//		if done { return }
//		select { case <-next: case <-ctx.Done(): return }
//	}
func (l *EventLog) Since(from int) (evs []Event, next <-chan struct{}, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, it := range l.iters[min(from, len(l.iters)):] {
		evs = append(evs, Event{Type: EventIteration, Iteration: it.iteration, Residual: it.residual})
	}
	if l.closed && from <= len(l.iters) {
		evs = append(evs, Event{Type: EventDone, State: l.final})
	}
	return evs, l.notify, l.closed
}

// Dropped returns how many iteration events fell past the retention cap.
func (l *EventLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Job is one async solve. The immutable identity fields are set at
// creation; the mutable lifecycle fields are guarded by mu and read
// through View.
type Job struct {
	// ID is the store-unique job identifier.
	ID string
	// Tenant is the API key (or "anonymous") that submitted the job.
	Tenant string
	// Events carries the per-iteration stream.
	Events *EventLog

	// store created the job and is told when it finishes.
	store *Store

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	result   any
}

// View is a point-in-time snapshot of a job, shaped for JSON.
type View struct {
	ID      string    `json:"id"`
	State   State     `json:"state"`
	Tenant  string    `json:"tenant,omitempty"`
	Created time.Time `json:"created"`
	// Started/Finished are nil until the transition happens.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// QueueMS is time from creation to start (or to now while queued).
	QueueMS float64 `json:"queue_ms"`
	Error   string  `json:"error,omitempty"`
	// Result is the solve response for terminal Done jobs.
	Result any `json:"result,omitempty"`
}

// optTime returns nil for the zero time, so a View omits a transition
// that has not happened.
func optTime(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// View snapshots the job.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:       j.ID,
		State:    j.state,
		Tenant:   j.Tenant,
		Created:  j.created,
		Started:  optTime(j.started),
		Finished: optTime(j.finished),
		Error:    j.errMsg,
		Result:   j.result,
	}
	switch {
	case !j.started.IsZero():
		v.QueueMS = float64(j.started.Sub(j.created).Nanoseconds()) / 1e6
	case j.state == StateQueued:
		v.QueueMS = float64(time.Since(j.created).Nanoseconds()) / 1e6
	case !j.finished.IsZero():
		// Shed straight from the queue: queue time is the whole life.
		v.QueueMS = float64(j.finished.Sub(j.created).Nanoseconds()) / 1e6
	}
	return v
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Created returns the submission time.
func (j *Job) Created() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.created
}

// Start transitions Queued → Running. It returns false (and is a no-op)
// if the job is not queued — e.g. already shed by the drain path.
func (j *Job) Start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// Finish moves the job to a terminal state, records the result or error,
// and seals the event log with the terminal event. Finishing an already
// terminal job is a no-op (first writer wins).
func (j *Job) Finish(state State, result any, errMsg string) {
	if !state.Terminal() {
		panic(fmt.Sprintf("jobs: Finish with non-terminal state %q", state))
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.finished = time.Now()
	j.result = result
	j.errMsg = errMsg
	at := j.finished
	j.mu.Unlock()
	j.Events.Close(Event{Type: EventDone, State: state})
	j.store.finished(j, at)
}

// StoreConfig sizes a Store.
type StoreConfig struct {
	// Capacity bounds resident jobs, terminal included — the store is
	// the poll window, so completed jobs stay until their TTL expires or,
	// at capacity, a new job evicts the one that finished first
	// (<= 0 = 4096).
	Capacity int
	// TTL is how long terminal jobs stay pollable (<= 0 = 10m). Queued
	// and running jobs never expire.
	TTL time.Duration
}

// Store defaults.
const (
	DefaultCapacity = 4096
	DefaultTTL      = 10 * time.Minute
)

// ErrStoreFull is returned by Create when every resident job is queued
// or running at capacity — the admission signal for 503 + Retry-After.
var ErrStoreFull = fmt.Errorf("jobs: store full")

// Store is a bounded, TTL-swept job table. All methods are safe for
// concurrent use. Sweeping is opportunistic (on Create, Counts and Len)
// so the store needs no background goroutine.
type Store struct {
	capacity int
	ttl      time.Duration

	mu   sync.Mutex
	jobs map[string]*Job
	// done lists the terminal jobs in the order they finished. Expiry
	// and capacity eviction both take from its front, so neither scans
	// the store.
	done []doneJob
}

// doneJob is a terminal job and the time it finished.
type doneJob struct {
	job *Job
	at  time.Time
}

// NewStore builds an empty store.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	return &Store{capacity: cfg.Capacity, ttl: cfg.TTL, jobs: make(map[string]*Job)}
}

// newID returns a 16-hex-char random job ID.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Create admits a new queued job. At capacity it evicts the job that
// finished first, and returns ErrStoreFull only when no resident job
// has finished.
func (s *Store) Create(tenant string) (*Job, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	if len(s.jobs) >= s.capacity {
		if len(s.done) == 0 {
			return nil, ErrStoreFull
		}
		s.dropFirstLocked()
	}
	j := &Job{
		ID:      newID(),
		Tenant:  tenant,
		Events:  NewEventLog(),
		store:   s,
		state:   StateQueued,
		created: now,
	}
	for s.jobs[j.ID] != nil { // vanishingly unlikely 64-bit collision
		j.ID = newID()
	}
	s.jobs[j.ID] = j
	return j, nil
}

// finished records that j reached a terminal state at time at.
func (s *Store) finished(j *Job, at time.Time) {
	s.mu.Lock()
	s.done = append(s.done, doneJob{job: j, at: at})
	s.mu.Unlock()
}

// Get returns the job by ID, or nil.
func (s *Store) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Counts returns resident jobs per state (after sweeping).
func (s *Store) Counts() map[State]int {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	counts := make(map[State]int, 6)
	for _, j := range s.jobs {
		counts[j.State()]++
	}
	return counts
}

// Len returns the resident job count (after sweeping).
func (s *Store) Len() int {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked(now)
	return len(s.jobs)
}

// sweepLocked drops terminal jobs whose TTL expired, oldest first.
// Callers hold s.mu.
func (s *Store) sweepLocked(now time.Time) {
	for len(s.done) > 0 && now.Sub(s.done[0].at) >= s.ttl {
		s.dropFirstLocked()
	}
}

// dropFirstLocked removes the job that finished first. Callers hold
// s.mu.
func (s *Store) dropFirstLocked() {
	delete(s.jobs, s.done[0].job.ID)
	s.done[0] = doneJob{} // collectable once the slice moves on
	s.done = s.done[1:]
}
