package serve

import (
	"runtime"
	"strings"
	"testing"

	"memsci/internal/core"
	"memsci/internal/jobs"
)

// TestMetricsScrapeReadsOnce pins the cost of one /metrics scrape: the
// six per-state job gauges share one job-store Counts pass, and the GC
// and heap series share one runtime.ReadMemStats (which stops the
// world), while each series still renders on its own.
func TestMetricsScrapeReadsOnce(t *testing.T) {
	m := newMetrics(NewCache(CacheConfig{}, core.DefaultClusterConfig(), 1))
	var counts, memReads int
	m.registerClusterFuncs(func() int { return 2 }, func() map[jobs.State]int {
		counts++
		return map[jobs.State]int{jobs.StateDone: 4, jobs.StateShed: 1}
	})
	m.registerRuntimeFuncs(func(ms *runtime.MemStats) {
		memReads++
		ms.NumGC, ms.PauseTotalNs, ms.HeapAlloc = 6, 700, 8000
	})
	var out strings.Builder
	m.reg.WritePrometheus(&out)
	if counts != 1 || memReads != 1 {
		t.Fatalf("one scrape called Counts %d times and ReadMemStats %d times, want 1 each", counts, memReads)
	}
	for _, line := range []string{
		"memserve_queue_depth 2\n",
		"# HELP memserve_jobs_queued Resident async jobs in state queued.\n# TYPE memserve_jobs_queued gauge\nmemserve_jobs_queued 0\n",
		"memserve_jobs_done 4\n",
		"memserve_jobs_shed 1\n",
		"# TYPE memserve_gc_runs_total counter\nmemserve_gc_runs_total 6\n",
		"# TYPE memserve_gc_pause_nanoseconds_total counter\nmemserve_gc_pause_nanoseconds_total 700\n",
		"# TYPE memserve_heap_alloc_bytes gauge\nmemserve_heap_alloc_bytes 8000\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("scrape lacks %q", line)
		}
	}
}
