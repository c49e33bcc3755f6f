package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	c := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if !c.Valid() {
		t.Fatalf("freshly minted context invalid: %+v", c)
	}
	got, ok := ParseTraceparent(c.Traceparent())
	if !ok || got != c {
		t.Fatalf("round trip %q -> %+v ok=%v, want %+v", c.Traceparent(), got, ok, c)
	}
	// Whitespace tolerance, any flags byte.
	if _, ok := ParseTraceparent("  " + c.Traceparent() + " "); !ok {
		t.Error("trimmed header rejected")
	}
	if _, ok := ParseTraceparent("00-" + c.TraceID + "-" + c.SpanID + "-00"); !ok {
		t.Error("flags 00 rejected")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	bad := []string{
		"",
		"garbage",
		"01-" + valid.TraceID + "-" + valid.SpanID + "-01",                  // wrong version
		"00-" + valid.TraceID + "-" + valid.SpanID,                          // missing flags
		"00-" + valid.TraceID + "-" + valid.SpanID + "-0",                   // short flags
		"00-" + valid.TraceID + "-" + valid.SpanID + "-zz",                  // non-hex flags
		"00-" + strings.Repeat("0", 32) + "-" + valid.SpanID + "-01",        // all-zero trace
		"00-" + valid.TraceID + "-" + strings.Repeat("0", 16) + "-01",       // all-zero span
		"00-" + strings.ToUpper(valid.TraceID) + "-" + valid.SpanID + "-01", // upper-case hex
		"00-" + valid.TraceID[:30] + "-" + valid.SpanID + "-01",             // short trace id
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted malformed traceparent %q", s)
		}
	}
}

func TestSpanTreeInvariants(t *testing.T) {
	root := NewSpan("n1", "request")
	child := root.StartChild("solve")
	grand := child.StartChild("inner")
	grand.End()
	child.End()
	root.End()

	if child.TraceID != root.TraceID || grand.TraceID != root.TraceID {
		t.Fatal("children do not share the root trace ID")
	}
	if child.ParentID != root.SpanID || grand.ParentID != child.SpanID {
		t.Fatal("parent links wrong")
	}
	if err := root.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if root.Find("inner") != grand {
		t.Error("Find missed the nested span")
	}

	// A child whose interval escapes its same-node parent must fail.
	bad := NewSpan("n1", "request")
	esc := bad.StartChildAt("early", bad.Start.Add(-time.Second))
	esc.End()
	bad.End()
	if err := bad.Validate(); err == nil {
		t.Error("escaping child interval passed Validate")
	}
}

// TestStartChildAtAnchorsOnParentClock pins how same-node child starts
// are stamped: the parent's wall-clock start plus the monotonic offset,
// exactly, so a wall-clock step between the two readings cannot push a
// child outside its parent's interval.
func TestStartChildAtAnchorsOnParentClock(t *testing.T) {
	root := NewSpan("n1", "request")
	for k := 0; k < 100; k++ {
		start := time.Now()
		c := root.StartChildAt("forward", start)
		got := c.Start.UnixNano() - root.Start.UnixNano()
		if want := start.Sub(root.Start).Nanoseconds(); got != want {
			t.Fatalf("child %d starts %dns after its parent on the wall clock, %dns on the monotonic clock", k, got, want)
		}
		if c.Start.Sub(root.Start) != start.Sub(root.Start) {
			t.Fatalf("child %d lost its monotonic reading", k)
		}
		c.End()
	}
	root.End()
	if err := root.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContinueSpanSharesTrace(t *testing.T) {
	entry := NewSpan("a", "request")
	fwd := entry.StartChild("forward")
	remote := ContinueSpan(fwd.Context(), "b", "request")
	if remote.TraceID != entry.TraceID {
		t.Fatalf("continued span trace %s != origin %s", remote.TraceID, entry.TraceID)
	}
	if remote.ParentID != fwd.SpanID {
		t.Fatalf("continued span parent %s != forward span %s", remote.ParentID, fwd.SpanID)
	}
	if remote.SpanID == fwd.SpanID {
		t.Fatal("continued span reused the remote span ID")
	}

	// The graft the entry node performs after the hop: remote subtree
	// under the forward span, still one valid trace.
	remoteSolve := remote.StartChild("solve")
	remoteSolve.End()
	remote.End()
	fwd.Graft(remote)
	fwd.End()
	entry.End()
	if err := entry.Validate(); err != nil {
		t.Fatalf("grafted cross-node tree rejected: %v", err)
	}
	nodes := map[string]bool{}
	entry.Walk(func(s *Span) { nodes[s.Node] = true })
	if !nodes["a"] || !nodes["b"] {
		t.Fatalf("tree does not cover both nodes: %v", nodes)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	// Every method must be a no-op on nil — tracing-disabled mode.
	c := s.StartChild("x")
	if c != nil {
		t.Fatal("nil span produced a child")
	}
	c.End()
	s.End()
	s.SetHW(HWCounters{Slices: 1})
	s.SetAttr("k", "v")
	s.Graft(NewSpan("n", "p"))
	s.Walk(func(*Span) { t.Fatal("walked a nil span") })
	if s.Find("x") != nil || s.HWTotal() != nil {
		t.Fatal("nil span found content")
	}
	if s.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("nil span failed validation: %v", err)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	root := NewSpan("n1", "request")
	solve := root.StartChild("solve")
	solve.SetHW(HWCounters{Slices: 5, ADCConversions: 7})
	solve.SetAttr("method", "cg")
	solve.End()
	root.End()

	raw, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if back.TraceID != root.TraceID || back.SpanID != root.SpanID {
		t.Fatal("IDs lost in round trip")
	}
	got := back.Find("solve")
	if got == nil || got.HW == nil || got.HW.Slices != 5 || got.Attrs["method"] != "cg" {
		t.Fatalf("solve span content lost: %+v", got)
	}
	if got.Start.UnixNano() != solve.Start.UnixNano() || got.Nanos != solve.Nanos {
		t.Fatal("timing lost in round trip")
	}
}

func TestSpanHWTotal(t *testing.T) {
	root := NewSpan("n", "request")
	a := root.StartChild("solve")
	a.SetHW(HWCounters{Slices: 3, ADCConversions: 10})
	b := root.StartChild("refresh")
	b.SetHW(HWCounters{Slices: 1})
	total := root.HWTotal()
	if total == nil || total.Slices != 4 || total.ADCConversions != 10 {
		t.Fatalf("HWTotal = %+v", total)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	s := NewSpan("n", "p")
	s.End()
	first := s.Nanos
	if first <= 0 {
		t.Fatal("ended span has no duration")
	}
	time.Sleep(time.Millisecond)
	s.End()
	if s.Nanos != first {
		t.Fatal("second End changed the duration")
	}
}

// TestFrozenSpanRendersSameJSON: a frozen tree renders byte for byte
// what the live tree rendered — nested children, attributes that need
// HTML escaping, hardware counters, a grafted remote subtree — alone
// and embedded in an enclosing document, and a nil span freezes to
// nil. The compressed form is well under the rendering's size.
func TestFrozenSpanRendersSameJSON(t *testing.T) {
	root := NewSpan("a", "job")
	root.SetAttr("request_id", "req-<1>&")
	q := root.StartChild("queue")
	q.End()
	p := root.StartChild("program")
	p.SetAttr("cache_hit", "false")
	p.End()
	s := root.StartChild("solve")
	s.SetHW(HWCounters{Slices: 4096, ADCConversions: 1 << 20, EarlyTermSaved: 77})
	s.SetAttr("iterations", "31")
	s.End()
	remote := ContinueSpan(root.Context(), "b", "request")
	remote.StartChild("solve").End()
	remote.End()
	root.Graft(remote)
	root.End()

	want, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	f := root.Freeze()
	for k := 0; k < 2; k++ { // the inflater is pooled: render twice
		got, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("frozen tree renders\n%s\nlive tree\n%s", got, want)
		}
	}
	type doc struct {
		N    int   `json:"n"`
		Span any   `json:"span,omitempty"`
		Tail []int `json:"tail"`
	}
	live, _ := json.Marshal(doc{N: 1, Span: root, Tail: []int{2}})
	frozen, _ := json.Marshal(doc{N: 1, Span: f, Tail: []int{2}})
	if string(live) != string(frozen) {
		t.Fatalf("embedded frozen tree renders\n%s\nlive\n%s", frozen, live)
	}
	if len(f.z) >= len(want)/2 {
		t.Errorf("frozen tree holds %d bytes for a %d-byte rendering", len(f.z), len(want))
	}
	if (*Span)(nil).Freeze() != nil {
		t.Error("nil span froze to a non-nil tree")
	}
}

func TestSpanRingEvictsOldest(t *testing.T) {
	r := NewSpanRing(3)
	r.Add(nil) // an untraced request with tracing off
	for i := 1; i <= 5; i++ {
		r.Add(&Span{Phase: string(rune('0' + i))})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("%d trees want 3", len(got))
	}
	for i, want := range []string{"5", "4", "3"} { // newest first
		if got[i].Phase != want {
			t.Errorf("snapshot[%d] = %s want %s", i, got[i].Phase, want)
		}
	}
}

func TestSpanRingPartial(t *testing.T) {
	r := NewSpanRing(8)
	r.Add(&Span{Phase: "a"})
	r.Add(&Span{Phase: "b"})
	got := r.Snapshot()
	if len(got) != 2 || got[0].Phase != "b" || got[1].Phase != "a" {
		t.Fatalf("partial snapshot %v", got)
	}
}

// Requests add trees while /debug/traces renders the ring.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := NewSpan("n", "request")
				sp.End()
				r.Add(sp)
				if _, err := json.Marshal(r.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(r.Snapshot()); got != 4 {
		t.Errorf("ring holds %d trees want 4", got)
	}
}
