package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be non-negative for Prometheus semantics; this is
// not enforced, matching the hand-rolled counters it replaces).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.Value())
}

// Gauge is an int64 metric that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.Value())
}

// FuncSpec names one metric of a FuncGroup.
type FuncSpec struct {
	Name, Help string
	// Counter renders the metric as a counter; otherwise it is a gauge.
	Counter bool
}

// funcGroup renders values computed at scrape time — used to expose
// counters owned by another subsystem (the engine cache, the job store,
// the runtime) without copying them into the registry on every update —
// read together by one call of f.
type funcGroup struct {
	specs []FuncSpec
	f     func(dst []int64)
}

func (g *funcGroup) write(w io.Writer) {
	vals := make([]int64, len(g.specs))
	g.f(vals)
	for i, sp := range g.specs {
		typ := "gauge"
		if sp.Counter {
			typ = "counter"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", sp.Name, sp.Help, sp.Name, typ, sp.Name, vals[i])
	}
}

// Label is one constant name="value" pair on an info metric.
type Label struct{ Name, Value string }

// infoMetric renders a constant gauge of value 1 whose labels carry the
// information — the memserve_build_info idiom, where the interesting
// content (version, go version) lives in label values joinable in
// PromQL, not in the sample.
type infoMetric struct {
	name, help string
	labels     []Label
}

func (m *infoMetric) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s{", m.name, m.help, m.name, m.name)
	for i, l := range m.labels {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "%s=%q", l.Name, l.Value)
	}
	io.WriteString(w, "} 1\n")
}

type metric interface{ write(io.Writer) }

// Registry holds named metrics and renders them in Prometheus text
// exposition format, in registration order. Registration is typically
// done once at construction; Observe/Inc/Add on the returned metrics are
// safe for concurrent use without further locking.
type Registry struct {
	mu      sync.Mutex
	names   map[string]bool
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register adds m, which renders the named metrics; every name must be
// new to the registry.
func (r *Registry) register(m metric, names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		if r.names[name] {
			panic(fmt.Sprintf("obs: duplicate metric %q", name))
		}
	}
	for _, name := range names {
		r.names[name] = true
	}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c, name)
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g, name)
	return g
}

// CounterFunc registers a counter whose value is read from f at scrape
// time.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.FuncGroup([]FuncSpec{{Name: name, Help: help, Counter: true}}, func(dst []int64) { dst[0] = f() })
}

// GaugeFunc registers a gauge whose value is read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.FuncGroup([]FuncSpec{{Name: name, Help: help}}, func(dst []int64) { dst[0] = f() })
}

// FuncGroup registers metrics read at scrape time from one call of f,
// which fills dst[i] for specs[i]. They render consecutively, in the
// given order, exactly as the same metrics registered one by one with
// CounterFunc or GaugeFunc would; a group serves values that are costly
// to read separately (one lock pass or one stop-the-world read serves
// them all).
func (r *Registry) FuncGroup(specs []FuncSpec, f func(dst []int64)) {
	specs = append([]FuncSpec(nil), specs...)
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	r.register(&funcGroup{specs: specs, f: f}, names...)
}

// Info registers a constant info-style gauge: value 1, identity in the
// labels (e.g. memserve_build_info{version=...,go_version=...} 1).
func (r *Registry) Info(name, help string, labels ...Label) {
	r.register(&infoMetric{name: name, help: help, labels: append([]Label(nil), labels...)}, name)
}

// Histogram registers and returns a histogram over the given ascending
// upper bounds (an implicit +Inf bucket is always appended).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(name, help, bounds)
	r.register(h, name)
	return h
}

// WritePrometheus renders every registered metric in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		m.write(w)
	}
}
