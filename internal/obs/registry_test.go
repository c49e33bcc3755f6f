package obs

import (
	"strings"
	"testing"
)

func TestRegistryRendersInRegistrationOrder(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a_total", "A.")
	g := reg.Gauge("b_current", "B.")
	reg.CounterFunc("c_total", "C.", func() int64 { return 7 })
	h := reg.Histogram("d_seconds", "D.", ExpBuckets(0.001, 2, 8))

	c.Add(3)
	c.Inc()
	g.Set(5)
	g.Add(-2)
	h.Observe(0.01)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()

	for _, want := range []string{
		"# HELP a_total A.\n# TYPE a_total counter\na_total 4\n",
		"# TYPE b_current gauge\nb_current 3\n",
		"# TYPE c_total counter\nc_total 7\n",
		"# TYPE d_seconds histogram",
		"d_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Index(text, "a_total") > strings.Index(text, "b_current") ||
		strings.Index(text, "b_current") > strings.Index(text, "c_total") ||
		strings.Index(text, "c_total") > strings.Index(text, "d_seconds") {
		t.Error("metrics not rendered in registration order")
	}
}

func TestRegistryInfoMetric(t *testing.T) {
	reg := NewRegistry()
	reg.Info("svc_build_info", "Build metadata.",
		Label{Name: "version", Value: "v1.2.3"},
		Label{Name: "go_version", Value: "go1.22"})
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		"# HELP svc_build_info Build metadata.",
		"# TYPE svc_build_info gauge",
		`svc_build_info{version="v1.2.3",go_version="go1.22"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	reg.Gauge("dup", "")
}

// TestRegistryFuncGroup checks that a FuncGroup renders byte for byte as
// the same metrics registered one by one, reads its values with one call
// per scrape, and refuses a name already taken.
func TestRegistryFuncGroup(t *testing.T) {
	vals := []int64{3, 5, 8}
	one := NewRegistry()
	one.CounterFunc("a_total", "A.", func() int64 { return vals[0] })
	one.GaugeFunc("b", "B.", func() int64 { return vals[1] })
	one.CounterFunc("c_total", "C.", func() int64 { return vals[2] })

	grouped := NewRegistry()
	calls := 0
	grouped.FuncGroup([]FuncSpec{
		{Name: "a_total", Help: "A.", Counter: true},
		{Name: "b", Help: "B."},
		{Name: "c_total", Help: "C.", Counter: true},
	}, func(dst []int64) {
		calls++
		copy(dst, vals)
	})
	var want, got strings.Builder
	one.WritePrometheus(&want)
	grouped.WritePrometheus(&got)
	if got.String() != want.String() {
		t.Fatalf("group renders\n%s\nwant\n%s", got.String(), want.String())
	}
	if calls != 1 {
		t.Fatalf("one scrape read the group %d times, want 1", calls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FuncGroup accepted a duplicate name")
		}
	}()
	grouped.GaugeFunc("d", "D.", func() int64 { return 0 })
	grouped.FuncGroup([]FuncSpec{{Name: "d", Help: "D."}}, func([]int64) {})
}
