package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the W3C trace-context header that carries span
// identity across process boundaries. A peer-forwarded solve sends
// "00-<trace-id>-<span-id>-01", so the owner node's spans join the entry
// node's trace instead of starting a fresh one.
const TraceparentHeader = "Traceparent"

// SpanContext is the wire identity of a span: the 128-bit trace ID every
// span of one request shares, and the 64-bit ID of the span that is the
// parent on the other side of a process hop. Both are lower-case hex.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both IDs have the W3C shape (32 and 16 lower-case
// hex digits, not all zero).
func (c SpanContext) Valid() bool {
	return isHexID(c.TraceID, 32) && isHexID(c.SpanID, 16)
}

// Traceparent renders the context in W3C trace-context form,
// version 00 with the sampled flag set.
func (c SpanContext) Traceparent() string {
	return "00-" + c.TraceID + "-" + c.SpanID + "-01"
}

// ParseTraceparent parses a version-00 traceparent header. It accepts
// exactly the shape Traceparent produces (any flags byte) and rejects
// everything else, so a malformed or hostile header degrades to a fresh
// trace rather than propagating garbage IDs into logs and metrics.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[3]) != 2 || !isHex(parts[3]) {
		return SpanContext{}, false
	}
	c := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func isHexID(s string, n int) bool {
	return len(s) == n && isHex(s) && strings.Trim(s, "0") != ""
}

// idFallback seeds deterministic-but-distinct IDs if crypto/rand ever
// fails (it effectively never does); tracing must not take a request down.
var idFallback atomic.Uint64

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		v := idFallback.Add(1)
		for i := range b {
			b[i] = byte(v >> (8 * (uint(i) % 8)))
		}
		b[0] |= 1 // never all-zero
	}
	return hex.EncodeToString(b)
}

// NewTraceID returns a fresh 128-bit trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns a fresh 64-bit span ID.
func NewSpanID() string { return randHex(8) }

// Span is one named phase of a request's lifecycle: queue wait, tenant
// throttle, cache programming, the solve itself, refresh work, or a
// forward hop to the ring owner. Spans form a tree (Children) under a
// shared trace ID; a span that executed on another node carries that
// node's ID, so a forwarded solve renders as one tree covering both
// processes. The HW field attaches the hardware-counter delta the phase
// cost — the paper's cost-attribution unit — so "where did the ADC
// conversions go" is answerable per phase, not just per solve.
//
// All methods are safe on a nil receiver and do nothing: the serving
// layer threads *Span unconditionally and disables tracing by simply not
// creating spans, which keeps the hot path free of tracing branches.
type Span struct {
	mu sync.Mutex

	TraceID  string
	SpanID   string
	ParentID string
	Phase    string
	Node     string
	Start    time.Time
	Nanos    int64
	HW       *HWCounters
	Attrs    map[string]string
	Children []*Span
}

// NewSpan starts a root span under a fresh trace ID.
func NewSpan(node, phase string) *Span {
	return &Span{
		TraceID: NewTraceID(),
		SpanID:  NewSpanID(),
		Phase:   phase,
		Node:    node,
		Start:   time.Now(),
	}
}

// ContinueSpan starts a root-of-this-process span that continues a
// remote trace: same trace ID, parented on the remote span (the entry
// node's forward span, via the traceparent header).
func ContinueSpan(c SpanContext, node, phase string) *Span {
	return &Span{
		TraceID:  c.TraceID,
		SpanID:   NewSpanID(),
		ParentID: c.SpanID,
		Phase:    phase,
		Node:     node,
		Start:    time.Now(),
	}
}

// StartChild starts a child span of the same trace on the same node,
// beginning now.
func (s *Span) StartChild(phase string) *Span {
	return s.StartChildAt(phase, time.Now())
}

// StartChildAt starts a child span with an explicit start time — how the
// job queue charges the wait between submission and dequeue to a span
// even though no goroutine was watching the clock in between.
//
// The child's start is anchored at the parent's start plus the
// monotonic offset of start. Durations are monotonic, so a wall-clock
// step between the parent's and the child's time.Now readings would
// otherwise shift the child's wall-clock interval against its parent's
// and make it escape the parent in Validate.
func (s *Span) StartChildAt(phase string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		TraceID:  s.TraceID,
		SpanID:   NewSpanID(),
		ParentID: s.SpanID,
		Phase:    phase,
		Node:     s.Node,
		Start:    s.Start.Add(start.Sub(s.Start)),
	}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End seals the span's duration. Ending twice keeps the first duration;
// attribute and hardware attachment remain allowed after End (the
// recorder folds hardware totals in at Finish, which may run after the
// solve span's interval closed).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Nanos == 0 {
		s.Nanos = time.Since(s.Start).Nanoseconds()
		if s.Nanos == 0 {
			s.Nanos = 1 // an ended span is never zero-length
		}
	}
	s.mu.Unlock()
}

// Context returns the span's wire identity (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SetHW attaches the hardware-counter delta this phase cost.
func (s *Span) SetHW(hw HWCounters) {
	if s == nil {
		return
	}
	s.mu.Lock()
	cp := hw
	s.HW = &cp
	s.mu.Unlock()
}

// SetAttr attaches one string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[k] = v
	s.mu.Unlock()
}

// Graft attaches a subtree produced by another process — the owner
// node's span tree decoded from a forwarded response — under s. The
// child keeps its own node and IDs; a coherent graft has child.TraceID
// == s.TraceID and child.ParentID == s.SpanID (Validate checks both).
func (s *Span) Graft(child *Span) {
	if s == nil || child == nil {
		return
	}
	s.mu.Lock()
	s.Children = append(s.Children, child)
	s.mu.Unlock()
}

// Walk visits the span and every descendant in depth-first order.
func (s *Span) Walk(visit func(*Span)) {
	if s == nil {
		return
	}
	visit(s)
	s.mu.Lock()
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.Walk(visit)
	}
}

// Find returns the first span (depth-first) with the given phase, nil if
// absent.
func (s *Span) Find(phase string) *Span {
	var found *Span
	s.Walk(func(sp *Span) {
		if found == nil && sp.Phase == phase {
			found = sp
		}
	})
	return found
}

// HWTotal sums the hardware deltas attached anywhere in the tree; nil
// when no span carries one.
func (s *Span) HWTotal() *HWCounters {
	var total HWCounters
	any := false
	s.Walk(func(sp *Span) {
		if sp.HW != nil {
			total.Add(*sp.HW)
			any = true
		}
	})
	if !any {
		return nil
	}
	return &total
}

// Validate checks the span-tree invariants the tracing layer promises:
// well-formed IDs, every descendant on the same trace, children parented
// on their enclosing span, and — for children recorded by the same
// process (same node) — child intervals nested inside the parent's.
// Cross-node children skip the interval check: their timestamps come
// from another clock.
func (s *Span) Validate() error {
	if s == nil {
		return nil
	}
	if !isHexID(s.TraceID, 32) {
		return fmt.Errorf("obs: span %q has malformed trace id %q", s.Phase, s.TraceID)
	}
	if !isHexID(s.SpanID, 16) {
		return fmt.Errorf("obs: span %q has malformed span id %q", s.Phase, s.SpanID)
	}
	end := s.Start.UnixNano() + s.Nanos
	for _, c := range s.Children {
		if c.TraceID != s.TraceID {
			return fmt.Errorf("obs: child %q trace %s != parent %q trace %s", c.Phase, c.TraceID, s.Phase, s.TraceID)
		}
		if c.ParentID != s.SpanID {
			return fmt.Errorf("obs: child %q parent id %s != enclosing span %q id %s", c.Phase, c.ParentID, s.Phase, s.SpanID)
		}
		if c.Node == s.Node && s.Nanos > 0 && c.Nanos > 0 {
			if c.Start.UnixNano() < s.Start.UnixNano() || c.Start.UnixNano()+c.Nanos > end {
				return fmt.Errorf("obs: child %q [%d,+%dns] escapes parent %q [%d,+%dns]",
					c.Phase, c.Start.UnixNano(), c.Nanos, s.Phase, s.Start.UnixNano(), s.Nanos)
			}
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// spanJSON is the wire shape: start as unix nanoseconds, everything else
// verbatim. It exists so Span can hold a time.Time (monotonic-clock End)
// and a mutex without leaking either into the encoding.
type spanJSON struct {
	TraceID        string            `json:"trace_id"`
	SpanID         string            `json:"span_id"`
	ParentID       string            `json:"parent_id,omitempty"`
	Phase          string            `json:"phase"`
	Node           string            `json:"node,omitempty"`
	StartUnixNanos int64             `json:"start_unix_nanos"`
	Nanos          int64             `json:"nanos"`
	HW             *HWCounters       `json:"hw,omitempty"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*Span           `json:"children,omitempty"`
}

// MarshalJSON renders the span tree.
func (s *Span) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	j := spanJSON{
		TraceID:        s.TraceID,
		SpanID:         s.SpanID,
		ParentID:       s.ParentID,
		Phase:          s.Phase,
		Node:           s.Node,
		StartUnixNanos: s.Start.UnixNano(),
		Nanos:          s.Nanos,
		HW:             s.HW,
		Attrs:          s.Attrs,
		Children:       s.Children,
	}
	s.mu.Unlock()
	return json.Marshal(&j)
}

// UnmarshalJSON rebuilds a span tree — how the entry node grafts the
// owner's spans out of a forwarded response.
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	s.TraceID = j.TraceID
	s.SpanID = j.SpanID
	s.ParentID = j.ParentID
	s.Phase = j.Phase
	s.Node = j.Node
	s.Start = time.Unix(0, j.StartUnixNanos)
	s.Nanos = j.Nanos
	s.HW = j.HW
	s.Attrs = j.Attrs
	s.Children = j.Children
	return nil
}
