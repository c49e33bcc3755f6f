package accel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"memsci/internal/core"
	"memsci/internal/device"
)

// faultedConfig arms error injection with a representative fault mix on
// top of the stochastic baseline.
func faultedConfig() core.ClusterConfig {
	cfg := core.DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Device.ProgError = 0.02
	cfg.Device.Faults = device.Faults{
		StuckAtHRS: 0.002,
		StuckAtLRS: 0.002,
		D2DSigma:   0.05,
		C2CSigma:   0.05,
		DriftNu:    0.1,
		DriftTau:   1e4,
	}
	return cfg
}

// driftConfig is a deterministic drift-only model: no stochastic draws,
// so degradation and recovery are exact functions of the engine clock.
func driftConfig() core.ClusterConfig {
	cfg := core.DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Device.ProgError = 0
	cfg.Device.LeakFluctuation = 0
	cfg.Device.Faults = device.Faults{DriftNu: 1, DriftTau: 1e4}
	return cfg
}

// TestEngineSeededDeterminism pins end-to-end reproducibility under the
// full fault mix: two engines built from the same plan and seed produce
// bit-identical outputs and identical statistics.
func TestEngineSeededDeterminism(t *testing.T) {
	_, plan := smallSystem(t, 192)
	a, err := NewEngine(plan, faultedConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(plan, faultedConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	xs, _ := batchInputs(rng, 3, a.Cols())
	ya, yb := make([]float64, a.Rows()), make([]float64, b.Rows())
	for k := range xs {
		a.Apply(ya, xs[k])
		b.Apply(yb, xs[k])
		for i := range ya {
			if math.Float64bits(ya[i]) != math.Float64bits(yb[i]) {
				t.Fatalf("rhs %d row %d: %x vs %x", k, i, ya[i], yb[i])
			}
		}
	}
	if !reflect.DeepEqual(a.TakeStats(), b.TakeStats()) {
		t.Fatal("identical seeded engines accumulated different stats")
	}
}

// TestApplyBatchInjectionWorkerInvariant is the determinism half of the
// fork-stream bugfix (run under -race in CI): with error injection and
// the full fault mix, a batch's outputs and statistics are identical
// whether it runs serially or across any number of worker forks,
// because every (epoch, RHS) pair reseeds the clusters to a derived
// stream that does not depend on scheduling. Before the fix, every fork
// replayed the cluster's base seed and the draws an RHS saw depended on
// which fork ran it and in what order.
func TestApplyBatchInjectionWorkerInvariant(t *testing.T) {
	_, plan := smallSystem(t, 192)
	serial, err := NewEngine(plan, faultedConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	serial.Parallelism = 1
	rng := rand.New(rand.NewSource(22))
	xs, want := batchInputs(rng, 9, serial.Cols())
	serial.ApplyBatch(want, xs)
	serialStats := serial.TakeStats()

	for _, workers := range []int{2, 4, 8} {
		eng, err := NewEngine(plan, faultedConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		eng.Parallelism = workers
		got := make([][]float64, len(xs))
		for k := range got {
			got[k] = make([]float64, eng.Rows())
		}
		eng.ApplyBatch(got, xs)
		for k := range xs {
			for i := range got[k] {
				if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("workers=%d rhs %d row %d: %x vs serial %x",
						workers, k, i, got[k][i], want[k][i])
				}
			}
		}
		if st := eng.TakeStats(); !reflect.DeepEqual(st, serialStats) {
			t.Fatalf("workers=%d stats diverge from serial:\n%+v\n%+v", workers, st, serialStats)
		}
	}

	// Epochs advance: the same inputs in a second batch draw different
	// error streams (fresh epoch), still deterministically — two engines
	// running two batches each stay in lockstep.
	a, _ := NewEngine(plan, faultedConfig(), 5)
	b, _ := NewEngine(plan, faultedConfig(), 5)
	a.Parallelism, b.Parallelism = 3, 1
	ya := make([][]float64, len(xs))
	yb := make([][]float64, len(xs))
	for k := range xs {
		ya[k] = make([]float64, a.Rows())
		yb[k] = make([]float64, b.Rows())
	}
	a.ApplyBatch(ya, xs)
	a.ApplyBatch(ya, xs)
	b.ApplyBatch(yb, xs)
	b.ApplyBatch(yb, xs)
	for k := range xs {
		for i := range ya[k] {
			if math.Float64bits(ya[k][i]) != math.Float64bits(yb[k][i]) {
				t.Fatalf("second epoch rhs %d row %d: %x vs %x", k, i, ya[k][i], yb[k][i])
			}
		}
	}
}

// TestRefreshSelfHealing is the end-to-end reliability loop on one
// engine: drift degrades the MVM, the AN-code detection rate crosses
// the policy threshold, the policy re-programs the clusters, accuracy
// returns to the freshly programmed level, and the write energy is
// charged. The whole sequence is deterministic.
func TestRefreshSelfHealing(t *testing.T) {
	_, plan := smallSystem(t, 192)
	run := func() ([]float64, RefreshStats) {
		eng, err := NewEngine(plan, driftConfig(), 3)
		if err != nil {
			t.Fatal(err)
		}
		policy := DefaultRefreshPolicy()
		policy.MinDecodes = 1
		policy.CooldownOps = 1
		eng.SetRefreshPolicy(&policy)

		rng := rand.New(rand.NewSource(23))
		xs, _ := batchInputs(rng, 1, eng.Cols())
		x := xs[0]
		// The reference is the engine's own freshly programmed output:
		// the blocked fixed-point path rounds differently from a float
		// CSR product, but drift-only degradation and recovery are exact
		// relative to the clean engine.
		clean := make([]float64, eng.Rows())
		eng.Apply(clean, x)

		dev := func() float64 {
			y := make([]float64, eng.Rows())
			eng.Apply(y, x)
			var worst float64
			for i := range y {
				d := math.Abs(y[i] - clean[i])
				if d > worst {
					worst = d
				}
			}
			return worst
		}

		if d := dev(); d != 0 {
			t.Fatalf("fresh drift-only engine not reproducible: deviation %v", d)
		}
		// Age hard: drift factor (1+4)^-1 = 0.2 — massive conductance
		// loss, so this Apply is degraded AND trips the policy at its
		// end (detection rate ≈ 1).
		eng.AdvanceTime(4e4)
		degraded := dev()
		if degraded <= 0 {
			t.Fatalf("aged engine still exact (deviation %v)", degraded)
		}
		rs := eng.RefreshStats()
		if rs.Refreshes == 0 {
			t.Fatal("refresh policy did not fire on a fully degraded engine")
		}
		if rs.Refreshes > uint64(eng.Clusters()) {
			t.Fatalf("%d refreshes for %d clusters in one evaluation", rs.Refreshes, eng.Clusters())
		}
		if rs.CellsReprogrammed == 0 || rs.WriteEnergyJoules <= 0 || rs.WriteTimeSeconds <= 0 {
			t.Fatalf("refresh charged no write cost: %+v", rs)
		}
		if rs.Failures != 0 {
			t.Fatalf("refresh reported failures: %+v", rs)
		}
		// The engine clock did not advance since the refresh, so the
		// re-programmed clusters are at age 0: recovered to exact.
		recovered := dev()
		if recovered != 0 {
			t.Fatalf("post-refresh deviation %v, want exact recovery (degraded was %v)", recovered, degraded)
		}
		return []float64{degraded, recovered}, eng.TakeRefreshStats()
	}
	d1, rs1 := run()
	d2, rs2 := run()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(rs1, rs2) {
		t.Fatalf("self-healing run not deterministic:\n%v %+v\n%v %+v", d1, rs1, d2, rs2)
	}
	if rs1.Refreshes == 0 {
		t.Fatal("TakeRefreshStats lost the refresh accounting")
	}
}

// TestRefreshStatsWindowing: TakeRefreshStats returns the window and
// resets it; RefreshStats.Sub differences snapshots.
func TestRefreshStatsWindowing(t *testing.T) {
	a := RefreshStats{Checks: 10, Refreshes: 3, CellsReprogrammed: 300, WriteEnergyJoules: 2, WriteTimeSeconds: 1}
	b := RefreshStats{Checks: 4, Refreshes: 1, CellsReprogrammed: 100, WriteEnergyJoules: 0.5, WriteTimeSeconds: 0.25}
	d := a.Sub(b)
	if d.Checks != 6 || d.Refreshes != 2 || d.CellsReprogrammed != 200 ||
		d.WriteEnergyJoules != 1.5 || d.WriteTimeSeconds != 0.75 {
		t.Fatalf("Sub = %+v", d)
	}

	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.refreshStats = a
	if got := eng.TakeRefreshStats(); !reflect.DeepEqual(got, a) {
		t.Fatalf("TakeRefreshStats = %+v, want %+v", got, a)
	}
	if got := eng.TakeRefreshStats(); got != (RefreshStats{}) {
		t.Fatalf("TakeRefreshStats did not reset: %+v", got)
	}
}

// TestAdvanceTimeAndForkSemantics: the engine clock ages every cluster
// relative to its own last programming; forks inherit the policy and
// clock, while batch forks have the policy disarmed (the origin alone
// evaluates it, once per batch).
func TestAdvanceTimeAndForkSemantics(t *testing.T) {
	_, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, driftConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Clusters() < 2 {
		t.Fatalf("test wants >= 2 clusters, got %d", eng.Clusters())
	}
	policy := DefaultRefreshPolicy()
	eng.SetRefreshPolicy(&policy)

	eng.AdvanceTime(5)
	for i, eb := range eng.clusters {
		if got := eb.cluster.Age(); got != 5 {
			t.Fatalf("cluster %d age %v after AdvanceTime(5)", i, got)
		}
	}
	// Refresh cluster 0 only: its age restarts, the others keep aging.
	eng.refreshCluster(0)
	if got := eng.clusters[0].cluster.Age(); got != 0 {
		t.Fatalf("refreshed cluster age %v, want 0", got)
	}
	eng.AdvanceTime(3)
	if got := eng.clusters[0].cluster.Age(); got != 3 {
		t.Fatalf("refreshed cluster age %v after +3, want 3", got)
	}
	if got := eng.clusters[1].cluster.Age(); got != 8 {
		t.Fatalf("unrefreshed cluster age %v, want 8", got)
	}

	f := eng.Fork()
	if f.refresh == nil {
		t.Fatal("fork did not inherit the refresh policy")
	}
	if f.now != eng.now {
		t.Fatalf("fork clock %v, origin %v", f.now, eng.now)
	}
	eng.ensureBatchForks(2)
	for i, bf := range eng.batchForks {
		if bf.refresh != nil {
			t.Fatalf("batch fork %d carries an armed refresh policy", i)
		}
	}
}

// TestSetRefreshPolicyDefaults: nil disarms; zero-ish fields are
// normalized; the policy is copied (caller mutations do not leak in).
func TestSetRefreshPolicyDefaults(t *testing.T) {
	_, plan := smallSystem(t, 128)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := RefreshPolicy{Window: 0, DetectedRate: 0.1}
	eng.SetRefreshPolicy(&p)
	if eng.refresh.Window != 1 {
		t.Fatalf("Window normalized to %d, want 1", eng.refresh.Window)
	}
	if eng.refresh.Energy == nil {
		t.Fatal("nil Energy not defaulted")
	}
	p.DetectedRate = 0.9
	if eng.refresh.DetectedRate != 0.1 {
		t.Fatal("policy not copied on SetRefreshPolicy")
	}
	eng.SetRefreshPolicy(nil)
	if eng.refresh != nil {
		t.Fatal("nil did not disarm the policy")
	}
}

// An error-free engine re-programmed cluster by cluster through the
// refresh path must keep its kernels and its outputs: a rebuilt
// exact-kernel cluster is the same cluster.
func TestRefreshRebuildKeepsExactKernel(t *testing.T) {
	_, plan := smallSystem(t, 192)
	eng, err := NewEngine(plan, core.DefaultClusterConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	policy := DefaultRefreshPolicy()
	eng.SetRefreshPolicy(&policy)
	rng := rand.New(rand.NewSource(12))
	x := make([]float64, eng.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, eng.Rows())
	eng.Apply(want, x)
	exactKernels := func(when string) {
		t.Helper()
		for i, eb := range eng.clusters {
			if k := eb.cluster.KernelName(); k != "exact" {
				t.Fatalf("%s: error-free cluster %d runs kernel %q", when, i, k)
			}
		}
	}
	exactKernels("before refresh")
	for i := range eng.clusters {
		eng.refreshCluster(i)
	}
	if got := eng.RefreshStats().Refreshes; got != uint64(len(eng.clusters)) {
		t.Fatalf("%d refreshes, want %d", got, len(eng.clusters))
	}
	exactKernels("after refresh")
	got := make([]float64, eng.Rows())
	eng.Apply(got, x)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d after refresh: %g, before %g", i, got[i], want[i])
		}
	}
}
