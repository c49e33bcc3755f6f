package jobs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestJobLifecycle(t *testing.T) {
	s := NewStore(StoreConfig{})
	j, err := s.Create("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != StateQueued {
		t.Fatalf("state %q, want queued", j.State())
	}
	if got := s.Get(j.ID); got != j {
		t.Fatal("Get did not return the created job")
	}
	if s.Get("missing") != nil {
		t.Fatal("Get(missing) should be nil")
	}
	if !j.Start() {
		t.Fatal("Start on queued job failed")
	}
	if j.Start() {
		t.Fatal("second Start should fail")
	}
	j.Finish(StateDone, map[string]int{"iterations": 3}, "")
	j.Finish(StateFailed, nil, "late") // first writer wins
	v := j.View()
	if v.State != StateDone || v.Error != "" || v.Result == nil {
		t.Fatalf("view %+v", v)
	}
	if v.Started == nil || v.Finished == nil || v.QueueMS < 0 {
		t.Fatalf("timestamps missing in %+v", v)
	}
	// Terminal event sealed the log.
	evs, _, closed := j.Events.Since(0)
	if !closed || len(evs) != 1 || evs[0].Type != EventDone || evs[0].State != StateDone {
		t.Fatalf("events %+v closed=%v", evs, closed)
	}
}

// TestViewJSONTimestamps: a view's "started" and "finished" keys are
// absent until the transition happens, then RFC 3339 times.
func TestViewJSONTimestamps(t *testing.T) {
	s := NewStore(StoreConfig{})
	j, err := s.Create("t")
	if err != nil {
		t.Fatal(err)
	}
	keys := func() map[string]json.RawMessage {
		t.Helper()
		b, err := json.Marshal(j.View())
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	check := func(m map[string]json.RawMessage, key string, want bool) {
		t.Helper()
		raw, ok := m[key]
		if ok != want {
			t.Fatalf("%q present = %v, want %v (state %s)", key, ok, want, j.State())
		}
		var at time.Time
		if ok {
			if err := json.Unmarshal(raw, &at); err != nil || at.IsZero() {
				t.Fatalf("%q = %s: %v", key, raw, err)
			}
		}
	}
	m := keys()
	check(m, "started", false)
	check(m, "finished", false)
	j.Start()
	m = keys()
	check(m, "started", true)
	check(m, "finished", false)
	j.Finish(StateDone, nil, "")
	m = keys()
	check(m, "started", true)
	check(m, "finished", true)
}

func TestShedFromQueue(t *testing.T) {
	s := NewStore(StoreConfig{})
	j, _ := s.Create("t")
	j.Finish(StateShed, nil, "queued too long")
	if j.Start() {
		t.Fatal("Start after shed should fail")
	}
	if v := j.View(); v.State != StateShed || v.QueueMS < 0 {
		t.Fatalf("view %+v", v)
	}
}

func TestStoreCapacityAndTTL(t *testing.T) {
	s := NewStore(StoreConfig{Capacity: 2, TTL: 10 * time.Millisecond})
	a, err := s.Create("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("t"); err != ErrStoreFull {
		t.Fatalf("err %v, want ErrStoreFull", err)
	}
	// Live (non-terminal) jobs never expire.
	time.Sleep(15 * time.Millisecond)
	if _, err := s.Create("t"); err != ErrStoreFull {
		t.Fatalf("err %v, want ErrStoreFull (live jobs must not expire)", err)
	}
	// A terminal job frees capacity after its TTL.
	a.Finish(StateDone, nil, "")
	time.Sleep(15 * time.Millisecond)
	if _, err := s.Create("t"); err != nil {
		t.Fatalf("create after TTL sweep: %v", err)
	}
	if s.Get(a.ID) != nil {
		t.Fatal("swept job still resident")
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("len %d, want 2", n)
	}
}

func TestStoreCounts(t *testing.T) {
	s := NewStore(StoreConfig{})
	a, _ := s.Create("t")
	b, _ := s.Create("t")
	_, _ = s.Create("t")
	a.Start()
	b.Start()
	b.Finish(StateTimeout, nil, "deadline")
	c := s.Counts()
	if c[StateQueued] != 1 || c[StateRunning] != 1 || c[StateTimeout] != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestEventLogReplayAndLive(t *testing.T) {
	l := NewEventLog()
	l.Append(Event{Type: EventIteration, Iteration: 1, Residual: 0.5})
	l.Append(Event{Type: EventIteration, Iteration: 2, Residual: 0.25})

	// Late subscriber replays the prefix.
	evs, next, closed := l.Since(0)
	if len(evs) != 2 || closed {
		t.Fatalf("replay %d events closed=%v", len(evs), closed)
	}
	// Blocking on next wakes on the following append.
	done := make(chan Event, 1)
	go func() {
		<-next
		evs, _, _ := l.Since(2)
		done <- evs[0]
	}()
	l.Append(Event{Type: EventIteration, Iteration: 3, Residual: 0.125})
	select {
	case e := <-done:
		if e.Iteration != 3 {
			t.Fatalf("live event %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber never woke")
	}

	l.Close(Event{Type: EventDone, State: StateDone})
	l.Append(Event{Type: EventIteration, Iteration: 4}) // ignored after close
	evs, _, closed = l.Since(0)
	if !closed || len(evs) != 4 || evs[3].Type != EventDone {
		t.Fatalf("after close: %d events closed=%v", len(evs), closed)
	}
}

func TestEventLogRetentionCap(t *testing.T) {
	l := NewEventLog()
	for i := 0; i < DefaultMaxEvents+100; i++ {
		l.Append(Event{Type: EventIteration, Iteration: i + 1})
	}
	l.Close(Event{Type: EventDone, State: StateDone})
	evs, _, closed := l.Since(0)
	if !closed {
		t.Fatal("not closed")
	}
	if len(evs) != DefaultMaxEvents {
		t.Fatalf("retained %d events, want %d", len(evs), DefaultMaxEvents)
	}
	if evs[len(evs)-1].Type != EventDone {
		t.Fatal("terminal event must always be retained")
	}
	if l.Dropped() != 101 {
		t.Fatalf("dropped %d, want 101", l.Dropped())
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore(StoreConfig{Capacity: 10000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := s.Create("t")
				if err != nil {
					t.Error(err)
					return
				}
				j.Start()
				j.Events.Append(Event{Type: EventIteration, Iteration: 1, Residual: 0.1})
				j.Finish(StateDone, nil, "")
				s.Get(j.ID).View()
				s.Counts()
			}
		}()
	}
	wg.Wait()
	if n := s.Len(); n != 400 {
		t.Fatalf("len %d, want 400", n)
	}
}

// TestStoreEvictsOldestFinished: at capacity, a new job evicts the
// resident job that finished first — not the oldest created, and never
// a queued or running one — and the store refuses only when every
// resident job is still live.
func TestStoreEvictsOldestFinished(t *testing.T) {
	s := NewStore(StoreConfig{Capacity: 3, TTL: time.Hour})
	a, _ := s.Create("t")
	b, _ := s.Create("t")
	c, _ := s.Create("t")
	b.Start()
	b.Finish(StateDone, nil, "")
	a.Finish(StateShed, nil, "shed")
	d, err := s.Create("t")
	if err != nil {
		t.Fatalf("create at capacity with finished jobs resident: %v", err)
	}
	if s.Get(b.ID) != nil || s.Get(a.ID) == nil {
		t.Fatal("eviction did not take the job that finished first")
	}
	if _, err := s.Create("t"); err != nil {
		t.Fatalf("second eviction: %v", err)
	}
	if s.Get(a.ID) != nil {
		t.Fatal("second eviction did not take the remaining finished job")
	}
	if _, err := s.Create("t"); err != ErrStoreFull {
		t.Fatalf("err %v with only live jobs resident, want ErrStoreFull", err)
	}
	if s.Get(c.ID) == nil || s.Get(d.ID) == nil || s.Len() != 3 {
		t.Fatalf("live jobs evicted: len %d", s.Len())
	}
	c.Finish(StateDone, nil, "")
	if _, err := s.Create("t"); err != nil || s.Get(c.ID) != nil {
		t.Fatalf("create after a job finished: %v (finished job resident: %v)", err, s.Get(c.ID) != nil)
	}
}

// TestEventLogClosedForm: a closed log replays the same events from any
// offset, keeps no slack past its iterations, and hands every
// subscriber the one shared closed channel.
func TestEventLogClosedForm(t *testing.T) {
	l := NewEventLog()
	for i := 1; i <= 5; i++ {
		l.Append(Event{Type: EventIteration, Iteration: i, Residual: 1 / float64(i)})
	}
	l.Close(Event{Type: EventDone, State: StateTimeout})
	if cap(l.iters) != 5 {
		t.Fatalf("closed log keeps capacity %d for 5 iterations", cap(l.iters))
	}
	for from := 0; from <= 7; from++ {
		evs, next, closed := l.Since(from)
		if !closed || next != closedNotify {
			t.Fatalf("from %d: closed=%v, shared channel=%v", from, closed, next == closedNotify)
		}
		if want := max(6-from, 0); len(evs) != want {
			t.Fatalf("from %d: %d events, want %d", from, len(evs), want)
		}
		for k, e := range evs {
			switch i := from + k; {
			case i < 5 && (e.Type != EventIteration || e.Iteration != i+1 || e.Residual != 1/float64(i+1) || e.State != ""):
				t.Fatalf("from %d: event %d = %+v", from, i, e)
			case i == 5 && (e != Event{Type: EventDone, State: StateTimeout}):
				t.Fatalf("from %d: terminal event %+v", from, e)
			}
		}
	}
	select {
	case <-closedNotify:
	default:
		t.Fatal("shared notify channel of closed logs is open")
	}
}
