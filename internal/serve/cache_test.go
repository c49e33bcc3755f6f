package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"memsci/internal/accel"
	"memsci/internal/blocking"
	"memsci/internal/core"
	"memsci/internal/matgen"
	"memsci/internal/sparse"
)

// testMatrix builds a banded SPD system that blocks well onto clusters.
func testMatrix(t testing.TB, rows int, seed int64) *sparse.CSR {
	t.Helper()
	spec := matgen.Spec{
		Name: "serve_test", Rows: rows, NNZ: rows * 12, SPD: true,
		Class: matgen.Banded, Band: 24, ExpSpread: 8, Seed: seed, DiagMargin: 0.1,
	}
	return spec.Generate()
}

func testVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestFingerprintDistinguishesContentAndConfig(t *testing.T) {
	cfg := core.DefaultClusterConfig()
	m1 := testMatrix(t, 128, 1)
	m2 := testMatrix(t, 128, 2)

	if Fingerprint(m1, cfg, 1) != Fingerprint(m1.Clone(), cfg, 1) {
		t.Error("identical matrices hash differently")
	}
	if Fingerprint(m1, cfg, 1) == Fingerprint(m2, cfg, 1) {
		t.Error("different matrices hash identically")
	}
	if Fingerprint(m1, cfg, 1) == Fingerprint(m1, cfg, 2) {
		t.Error("seed ignored by fingerprint")
	}
	cfg2 := cfg
	cfg2.CIC = false
	if Fingerprint(m1, cfg, 1) == Fingerprint(m1, cfg2, 1) {
		t.Error("cluster config ignored by fingerprint")
	}
	// A one-ULP value change must change the key.
	m3 := m1.Clone()
	m3.Vals[0] += m3.Vals[0] * 1e-15
	if Fingerprint(m1, cfg, 1) == Fingerprint(m3, cfg, 1) {
		t.Error("value perturbation ignored by fingerprint")
	}
}

// Acceptance: a cached solve performs zero cluster programming.
func TestCacheHitProgramsNothing(t *testing.T) {
	c := NewCache(CacheConfig{}, core.DefaultClusterConfig(), 1)
	m := testMatrix(t, 128, 3)
	ctx := context.Background()

	l1, err := c.Acquire(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Hit {
		t.Error("first acquisition reported a hit")
	}
	l1.Release()
	if got := c.Stats().Programmings; got != 1 {
		t.Fatalf("programmings after miss = %d, want 1", got)
	}

	for i := 0; i < 5; i++ {
		l, err := c.Acquire(ctx, m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if !l.Hit {
			t.Errorf("acquisition %d missed", i)
		}
		x := testVector(m.Cols(), int64(i))
		y := make([]float64, m.Rows())
		l.Engine.Apply(y, x)
		l.Release()
	}
	st := c.Stats()
	if st.Programmings != 1 {
		t.Errorf("cached solves programmed: programmings = %d, want 1", st.Programmings)
	}
	if st.Hits != 5 {
		t.Errorf("hits = %d, want 5", st.Hits)
	}
}

// Acceptance: two (here eight) concurrent requests for the same uncached
// matrix program it exactly once.
func TestCacheConcurrentAcquireProgramsOnce(t *testing.T) {
	c := NewCache(CacheConfig{}, core.DefaultClusterConfig(), 1)
	m := testMatrix(t, 128, 4)
	ctx := context.Background()

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l, err := c.Acquire(ctx, m.Clone())
			if err != nil {
				errs[w] = err
				return
			}
			x := testVector(m.Cols(), int64(w))
			y := make([]float64, m.Rows())
			l.Engine.Apply(y, x)
			l.Release()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := c.Stats()
	if st.Programmings != 1 {
		t.Errorf("concurrent acquisitions programmed %d times, want exactly 1", st.Programmings)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != workers-1 {
		t.Errorf("hits %d + coalesced %d, want %d combined", st.Hits, st.Coalesced, workers-1)
	}
}

// Acceptance: a cached (and pool-forked) engine returns bit-identical
// results to a freshly programmed engine.
func TestCacheBitIdenticalToFreshEngine(t *testing.T) {
	ccfg := core.DefaultClusterConfig()
	c := NewCache(CacheConfig{PoolSize: 3}, ccfg, 1)
	m := testMatrix(t, 192, 5)
	ctx := context.Background()

	plan, err := blocking.Preprocess(m, blocking.DefaultSubstrate())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := accel.NewEngine(plan, ccfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(m.Cols(), 7)
	want := make([]float64, m.Rows())
	fresh.Apply(want, x)

	// Drain the whole pool so base and forks are all exercised.
	var leases []*Lease
	for i := 0; i < 3; i++ {
		l, err := c.Acquire(ctx, m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for i, l := range leases {
		got := make([]float64, m.Rows())
		l.Engine.Apply(got, x)
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("lease %d row %d: cached %x vs fresh %x", i, r, got[r], want[r])
			}
		}
		l.Release()
	}
	if st := c.Stats(); st.Programmings != 1 || st.Forks != 2 {
		t.Errorf("programmings %d forks %d, want 1 and 2", st.Programmings, st.Forks)
	}
}

// Sequential traffic on one matrix reuses the released engine: a lease
// forks only when every engine already made is leased out.
func TestCacheSequentialLeasesDoNotFork(t *testing.T) {
	c := NewCache(CacheConfig{PoolSize: 4}, core.DefaultClusterConfig(), 1)
	m := testMatrix(t, 128, 8)
	for i := 0; i < 10; i++ {
		l, err := c.Acquire(context.Background(), m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	if st := c.Stats(); st.Programmings != 1 || st.Forks != 0 {
		t.Errorf("10 sequential leases: programmings %d forks %d, want 1 and 0", st.Programmings, st.Forks)
	}
}

// Distinct leases on one entry run Apply concurrently (race-checked).
func TestCacheLeasePoolParallelApplies(t *testing.T) {
	c := NewCache(CacheConfig{PoolSize: 4}, core.DefaultClusterConfig(), 1)
	m := testMatrix(t, 128, 6)
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l, err := c.Acquire(ctx, m.Clone())
			if err != nil {
				t.Error(err)
				return
			}
			defer l.Release()
			x := testVector(m.Cols(), int64(w))
			y := make([]float64, m.Rows())
			for rep := 0; rep < 3; rep++ {
				l.Engine.Apply(y, x)
			}
		}(w)
	}
	wg.Wait()
}

func TestCacheLeaseWaitRespectsContext(t *testing.T) {
	c := NewCache(CacheConfig{PoolSize: 1}, core.DefaultClusterConfig(), 1)
	m := testMatrix(t, 128, 7)

	l, err := c.Acquire(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Acquire(ctx, m.Clone()); err == nil {
		t.Fatal("second lease on exhausted pool succeeded")
	}
	l.Release()
	// The released engine is leasable again.
	l2, err := c.Acquire(context.Background(), m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	l2.Release()
	l2.Release() // double release is a no-op
}

// TestCacheEvictionRacesLiveLeases: eviction under capacity pressure
// must never invalidate an engine another goroutine is mid-Apply on —
// evicted entries with outstanding leases move to the orphaned pool and
// stay valid until released. Run under -race, this also checks the
// eviction bookkeeping against concurrent Acquire/Release.
func TestCacheEvictionRacesLiveLeases(t *testing.T) {
	ccfg := core.DefaultClusterConfig()
	probe := NewCache(CacheConfig{}, ccfg, 1)
	m1 := testMatrix(t, 128, 8)
	l, err := probe.Acquire(context.Background(), m1)
	if err != nil {
		t.Fatal(err)
	}
	weight := l.Engine.Clusters()
	l.Release()

	// Room for one entry: every alternating acquisition evicts the other
	// matrix, frequently while its lease is still applying.
	c := NewCache(CacheConfig{MaxClusters: weight}, ccfg, 1)
	mats := []*sparse.CSR{m1, testMatrix(t, 128, 9)}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				m := mats[(w+rep)%2]
				l, err := c.Acquire(context.Background(), m.Clone())
				if err != nil {
					t.Error(err)
					return
				}
				x := testVector(m.Cols(), int64(w))
				y := make([]float64, m.Rows())
				l.Engine.Apply(y, x)
				for _, v := range y {
					if v != v {
						t.Error("evicted-entry lease produced NaN")
						break
					}
				}
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions == 0 {
		t.Errorf("no evictions occurred; the race went unexercised: %+v", st)
	}
}

func TestCacheEvictionByClusterBound(t *testing.T) {
	ccfg := core.DefaultClusterConfig()
	probe := NewCache(CacheConfig{}, ccfg, 1)
	m1 := testMatrix(t, 128, 8)
	l, err := probe.Acquire(context.Background(), m1)
	if err != nil {
		t.Fatal(err)
	}
	weight := l.Engine.Clusters()
	l.Release()
	if weight == 0 {
		t.Fatal("test matrix occupies no clusters")
	}

	// Capacity for one entry only: inserting a second evicts the first.
	c := NewCache(CacheConfig{MaxClusters: weight}, ccfg, 1)
	m2 := testMatrix(t, 128, 9)
	for _, m := range []*sparse.CSR{m1, m2} {
		l, err := c.Acquire(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Errorf("evictions %d entries %d, want 1 and 1", st.Evictions, st.Entries)
	}
	// m1 was evicted: re-acquiring it programs again.
	l, err = c.Acquire(context.Background(), m1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if st := c.Stats(); st.Programmings != 3 {
		t.Errorf("programmings = %d, want 3 (m1, m2, re-programmed m1)", st.Programmings)
	}
}
