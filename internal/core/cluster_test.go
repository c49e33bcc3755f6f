package core

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"memsci/internal/device"
)

// randBlockVals builds an m×n dense value matrix with entries spanning a
// bounded exponent range and a given fill fraction.
func randBlockVals(rng *rand.Rand, m, n int, expSpread int, fill float64) [][]float64 {
	vals := make([][]float64, m)
	for i := range vals {
		vals[i] = make([]float64, n)
		for j := range vals[i] {
			if rng.Float64() >= fill {
				continue
			}
			mag := math.Ldexp(1+rng.Float64(), rng.Intn(expSpread+1)-expSpread/2)
			if rng.Intn(2) == 0 {
				mag = -mag
			}
			vals[i][j] = mag
		}
	}
	return vals
}

func randVec(rng *rand.Rand, n, expSpread int, fill float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Float64() >= fill {
			continue
		}
		v := math.Ldexp(1+rng.Float64(), rng.Intn(expSpread+1)-expSpread/2)
		if rng.Intn(2) == 0 {
			v = -v
		}
		x[i] = v
	}
	return x
}

// mustCluster programs dense values into a cluster on the kernel
// NewCluster selects.
func mustCluster(t *testing.T, vals [][]float64, cfg ClusterConfig) *Cluster {
	t.Helper()
	return buildCluster(t, vals, cfg, false)
}

// buildCluster is mustCluster, or with reference set a cluster on the
// big.Int reference MVM.
func buildCluster(t *testing.T, vals [][]float64, cfg ClusterConfig, reference bool) *Cluster {
	t.Helper()
	b, err := NewBlockDense(vals, MaxPadBits)
	if err != nil {
		t.Fatalf("NewBlockDense: %v", err)
	}
	c, err := newCluster(b, cfg, reference)
	if err != nil {
		t.Fatalf("newCluster(reference=%v): %v", reference, err)
	}
	return c
}

// TestNewClusterRefusesNarrowWords: the kernels and the reference build
// on 64-bit words, so a build whose big.Word is narrower must refuse to
// program a cluster instead of returning wrong sums. It runs on 32-bit
// builds (GOARCH=386) and skips elsewhere.
func TestNewClusterRefusesNarrowWords(t *testing.T) {
	if wordBits == 64 {
		t.Skip("clusters are supported on 64-bit words")
	}
	blk, err := NewBlockDense([][]float64{{1, -2.5}, {0.75, 4}}, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, inject := range []bool{false, true} {
		cfg := DefaultClusterConfig()
		cfg.InjectErrors = inject
		for _, reference := range []bool{false, true} {
			if _, err := newCluster(blk, cfg, reference); err == nil {
				t.Errorf("inject=%v reference=%v: a cluster was programmed on %d-bit words", inject, reference, wordBits)
			}
		}
	}
}

// TestClusterMatchesExactDot is the headline correctness property: the
// full hardware pipeline (bias, AN code, CIC, bit slicing, shift-and-add
// reduction, de-bias, early termination) reproduces the exactly rounded
// dot product for every output.
func TestClusterMatchesExactDot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		vals := randBlockVals(rng, m, n, 20, 0.7)
		c := mustCluster(t, vals, DefaultClusterConfig())
		x := randVec(rng, n, 16, 0.8)
		y, err := c.MulVec(x)
		if err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		for i := 0; i < m; i++ {
			want := referenceDot(vals[i], x, TowardNegInf)
			if math.Float64bits(y[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d row %d: cluster %g (%x) != exact %g (%x)",
					trial, i, y[i], math.Float64bits(y[i]), want, math.Float64bits(want))
			}
		}
	}
}

func TestClusterAllRoundingModes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := randBlockVals(rng, 6, 8, 18, 0.8)
	x := randVec(rng, 8, 12, 0.9)
	for _, mode := range []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero} {
		cfg := DefaultClusterConfig()
		cfg.Rounding = mode
		c := mustCluster(t, vals, cfg)
		y, err := c.MulVec(x)
		if err != nil {
			t.Fatalf("MulVec(%v): %v", mode, err)
		}
		for i := range y {
			want := referenceDot(vals[i], x, mode)
			if math.Float64bits(y[i]) != math.Float64bits(want) {
				t.Fatalf("mode %v row %d: got %g want %g", mode, i, y[i], want)
			}
		}
	}
}

// TestEarlyTerminationPreservesResult verifies §IV-B: terminating when
// the mantissa settles yields the identical rounded result as the naive
// full-width accumulation, while doing strictly less work.
func TestEarlyTerminationPreservesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m, n := 4+rng.Intn(6), 4+rng.Intn(6)
		vals := randBlockVals(rng, m, n, 40, 0.9)
		x := randVec(rng, n, 30, 0.9)

		cfgFast := DefaultClusterConfig()
		cFast := mustCluster(t, vals, cfgFast)
		yFast, err := cFast.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}

		cfgFull := DefaultClusterConfig()
		cfgFull.DisableEarlyTermination = true
		cFull := mustCluster(t, vals, cfgFull)
		yFull, err := cFull.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range yFast {
			if math.Float64bits(yFast[i]) != math.Float64bits(yFull[i]) {
				t.Fatalf("trial %d row %d: early-terminated %g != full %g", trial, i, yFast[i], yFull[i])
			}
		}
		if cFast.Stats().Conversions > cFull.Stats().Conversions {
			t.Fatalf("early termination did more conversions (%d) than full (%d)",
				cFast.Stats().Conversions, cFull.Stats().Conversions)
		}
	}
}

// TestEarlyTerminationSavesWork checks the wide-dynamic-range case where
// termination should cut deeply: a narrow-exponent result from
// wide-exponent inputs settles long before the low slices.
func TestEarlyTerminationSavesWork(t *testing.T) {
	vals := [][]float64{{1.5, 1e-9, -1e-9, 2.25}}
	cfg := DefaultClusterConfig()
	c := mustCluster(t, vals, cfg)
	// Dominated by 2·1.5 + 2.25 = 5.25; the 1e-9 products land well below
	// the mantissa and (unlike exact cancellation) leave the sum safely
	// inside a rounding interval, so the low slices can be skipped.
	x := []float64{2, 3e-9, 1e-9, 1}
	y, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDot(vals[0], x, TowardNegInf)
	if y[0] != want {
		t.Fatalf("got %g want %g", y[0], want)
	}
	st := c.Stats()
	if st.VectorSlicesApplied >= st.VectorSlicesTotal {
		t.Fatalf("expected early termination: applied %d of %d slices",
			st.VectorSlicesApplied, st.VectorSlicesTotal)
	}
}

func TestClusterZeroCases(t *testing.T) {
	cfg := DefaultClusterConfig()
	// Zero block.
	b, err := NewBlock(3, 3, nil, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	y, err := c.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if v != 0 {
			t.Errorf("zero block y[%d] = %g", i, v)
		}
	}
	// Zero vector.
	c2 := mustCluster(t, [][]float64{{1, 2}, {3, 4}}, cfg)
	y2, err := c2.MulVec([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if y2[0] != 0 || y2[1] != 0 {
		t.Errorf("zero vector y = %v", y2)
	}
}

func TestClusterNegativeHeavy(t *testing.T) {
	// Stress the biasing scheme: all-negative block and mixed vector.
	vals := [][]float64{
		{-1, -2, -4, -0.5},
		{-3, -0.25, -8, -1.5},
	}
	c := mustCluster(t, vals, DefaultClusterConfig())
	x := []float64{-1, 2, -0.5, 4}
	y, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		want := referenceDot(vals[i], x, TowardNegInf)
		if y[i] != want {
			t.Fatalf("row %d: got %g want %g", i, y[i], want)
		}
	}
}

func TestClusterCancellation(t *testing.T) {
	// Exact cancellation: the running sum crosses zero and the result's
	// leading one is far below the inputs' — the hard case for leading-one
	// detection.
	vals := [][]float64{{1.0, -1.0, 1e-12}}
	c := mustCluster(t, vals, DefaultClusterConfig())
	x := []float64{7.25, 7.25, 1}
	y, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDot(vals[0], x, TowardNegInf)
	if y[0] != want {
		t.Fatalf("cancellation: got %g want %g", y[0], want)
	}
}

func TestClusterQuickProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("quick property test")
	}
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(6), 1+r.Intn(6)
		vals := randBlockVals(r, m, n, 30, 0.6)
		x := randVec(r, n, 25, 0.7)
		b, err := NewBlockDense(vals, MaxPadBits)
		if err != nil {
			return true // exponent range exceeded: handled by blocking layer
		}
		c, err := NewCluster(b, DefaultClusterConfig())
		if err != nil {
			return false
		}
		y, err := c.MulVec(x)
		if err != nil {
			return false
		}
		for i := range y {
			if math.Float64bits(y[i]) != math.Float64bits(referenceDot(vals[i], x, TowardNegInf)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWithoutCIC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randBlockVals(rng, 5, 7, 10, 1.0)
	x := randVec(rng, 7, 8, 1.0)
	cfg := DefaultClusterConfig()
	cfg.CIC = false
	c := mustCluster(t, vals, cfg)
	cfg2 := DefaultClusterConfig()
	c2 := mustCluster(t, vals, cfg2)
	y1, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := c2.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("CIC changed result: %g vs %g", y1[i], y2[i])
		}
	}
	if c2.ADCResolution() >= c.ADCResolution() {
		t.Errorf("CIC should reduce ADC resolution: with=%d without=%d",
			c2.ADCResolution(), c.ADCResolution())
	}
}

func TestHeadstartReducesConversionBits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := randBlockVals(rng, 6, 16, 6, 0.3) // sparse: headstart helps
	x := randVec(rng, 16, 6, 0.9)
	with := DefaultClusterConfig()
	without := DefaultClusterConfig()
	without.Headstart = false
	c1 := mustCluster(t, vals, with)
	c2 := mustCluster(t, vals, without)
	y1, _ := c1.MulVec(x)
	y2, _ := c2.MulVec(x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("headstart changed result")
		}
	}
	if c1.Stats().ConversionBits >= c2.Stats().ConversionBits {
		t.Errorf("headstart should reduce conversion bits: %d vs %d",
			c1.Stats().ConversionBits, c2.Stats().ConversionBits)
	}
}

// TestClusterIdealWithInjectionDisabled ensures the ideal device (no
// programming error, huge range) perturbs nothing even when the error
// path is exercised.
func TestClusterIdealWithInjectionDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := randBlockVals(rng, 4, 8, 12, 0.8)
	x := randVec(rng, 8, 10, 0.9)
	cfg := DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Device.ProgError = 0
	cfg.Device.DynamicRange = math.Inf(1)
	c := mustCluster(t, vals, cfg)
	y, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		want := referenceDot(vals[i], x, TowardNegInf)
		if y[i] != want {
			t.Fatalf("ideal injected device changed result: %g vs %g", y[i], want)
		}
	}
	if c.Stats().AN.Accuracy() != 1 {
		t.Errorf("ideal device triggered corrections: %+v", c.Stats().AN)
	}
}

// TestClusterLeakageErrorsDegrade checks that a harshly limited dynamic
// range on large dense columns introduces computational error — the
// failure mode §IV-E caps crossbar size to avoid.
func TestClusterLeakageErrorsDegrade(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	vals := randBlockVals(rng, 2, n, 4, 1.0)
	x := randVec(rng, n, 4, 1.0)
	cfg := DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Device.DynamicRange = 20 // leakage 1/20 per off cell: 64 rows break it
	cfg.DisableAN = true         // let raw analog error through
	c := mustCluster(t, vals, cfg)
	y, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	exact := []float64{referenceDot(vals[0], x, TowardNegInf), referenceDot(vals[1], x, TowardNegInf)}
	if y[0] == exact[0] && y[1] == exact[1] {
		t.Errorf("expected leakage-induced error with range 20 on %d dense rows", n)
	}
	// And the paper's design point must be clean.
	cfg2 := DefaultClusterConfig()
	cfg2.InjectErrors = true // TaOx: range 1500, no prog error
	c2 := mustCluster(t, vals, cfg2)
	y2, err := c2.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y2 {
		if y2[i] != exact[i] {
			t.Errorf("TaOx design point perturbed row %d: %g vs %g", i, y2[i], exact[i])
		}
	}
}

func TestClusterStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := randBlockVals(rng, 4, 4, 8, 1.0)
	x := randVec(rng, 4, 8, 1.0)
	c := mustCluster(t, vals, DefaultClusterConfig())
	if _, err := c.MulVec(x); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Ops != 1 {
		t.Errorf("Ops = %d", st.Ops)
	}
	if st.VectorSlicesApplied == 0 || st.VectorSlicesApplied > st.VectorSlicesTotal {
		t.Errorf("slices applied %d total %d", st.VectorSlicesApplied, st.VectorSlicesTotal)
	}
	if st.Conversions == 0 || st.CrossbarActivations == 0 {
		t.Errorf("missing accounting: %+v", st)
	}
	if len(st.ColumnSlicesUsed) != 4 {
		t.Errorf("ColumnSlicesUsed len %d", len(st.ColumnSlicesUsed))
	}
	for i, s := range st.ColumnSlicesUsed {
		if s <= 0 || s > st.VectorSlicesApplied {
			t.Errorf("column %d slices used %d out of range", i, s)
		}
	}
}

func TestClusterMultiBitCells(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := randBlockVals(rng, 4, 6, 10, 0.8)
	x := randVec(rng, 6, 8, 0.9)
	cfg := DefaultClusterConfig()
	cfg.Device.BitsPerCell = 2
	c := mustCluster(t, vals, cfg)
	y, err := c.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		want := referenceDot(vals[i], x, TowardNegInf)
		if y[i] != want {
			t.Fatalf("2-bit cells row %d: got %g want %g", i, y[i], want)
		}
	}
	c1 := mustCluster(t, vals, DefaultClusterConfig())
	if c.Planes() >= c1.Planes() {
		t.Errorf("2-bit cells should halve planes: %d vs %d", c.Planes(), c1.Planes())
	}
}

func TestDeviceParamsValidate(t *testing.T) {
	p := device.TaOx()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.BitsPerCell = 0
	if err := p.Validate(); err == nil {
		t.Error("expected validation failure for 0 bits per cell")
	}
}

// addShifted sized at the exact boundary: a carry that terminates in the
// last word must produce the same result as big.Int arithmetic, and a
// carry that would run past the accumulator must panic instead of
// indexing out of range (the redWords sizing invariant, made loud).
func TestAddShiftedExactBoundary(t *testing.T) {
	// Two words, both saturated low bits: adding v<<shift straddles the
	// word boundary and the carry chain ends exactly at words[1].
	words := []big.Word{^big.Word(0), ^big.Word(0) >> 1}
	want := new(big.Int).SetBits(append([]big.Word(nil), words...))
	v := uint64(0x3)
	shift := uint(63)
	addShifted(words, shift, v)
	add := new(big.Int).Lsh(new(big.Int).SetUint64(v), shift)
	want.Add(want, add)
	got := new(big.Int).SetBits(append([]big.Word(nil), words...))
	if got.Cmp(want) != 0 {
		t.Fatalf("boundary carry: got %x want %x", got, want)
	}
}

func TestAddShiftedOverflowPanics(t *testing.T) {
	cases := []struct {
		name  string
		words []big.Word
		shift uint
		v     uint64
	}{
		// Carry out of the top word: all-ones accumulator plus 1.
		{"carry", []big.Word{^big.Word(0), ^big.Word(0)}, 0, 1},
		// High half of a straddling value lands past the last word.
		{"straddle", []big.Word{0}, 63, 0x3},
		// Shift addresses a word beyond the accumulator entirely.
		{"shift", []big.Word{0}, 64, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on undersized accumulator", tc.name)
				}
			}()
			addShifted(tc.words, tc.shift, tc.v)
		})
	}
}

// Merge must aggregate every cumulative counter: the test sets each
// numeric field (recursing into nested stats structs) to a distinct
// value via reflection, merges, and checks the sums, so a field added to
// ComputeStats without a Merge update fails here instead of being
// silently dropped by engine-level aggregation. ColumnSlicesUsed and
// MinSettleSlice are per-call diagnostics, documented as not merged.
func TestComputeStatsMergeCoversAllFields(t *testing.T) {
	perCall := map[string]bool{"ColumnSlicesUsed": true, "MinSettleSlice": true}
	var a, b ComputeStats
	next := int64(1)
	var fill func(v reflect.Value, scale int64)
	fill = func(v reflect.Value, scale int64) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if perCall[v.Type().Field(i).Name] {
				continue
			}
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(next * scale)
				next++
			case reflect.Uint64:
				f.SetUint(uint64(next * scale))
				next++
			case reflect.Struct:
				fill(f, scale)
			case reflect.Slice:
				// per-call only; covered by the skip list
			default:
				t.Fatalf("unhandled field kind %s for %s", f.Kind(), v.Type().Field(i).Name)
			}
		}
	}
	fill(reflect.ValueOf(&a).Elem(), 1)
	next = 1
	fill(reflect.ValueOf(&b).Elem(), 1000)

	merged := a
	merged.Merge(&b)

	var check func(m, av, bv reflect.Value, path string)
	check = func(m, av, bv reflect.Value, path string) {
		for i := 0; i < m.NumField(); i++ {
			name := path + m.Type().Field(i).Name
			if perCall[m.Type().Field(i).Name] {
				continue
			}
			switch m.Field(i).Kind() {
			case reflect.Int:
				if got, want := m.Field(i).Int(), av.Field(i).Int()+bv.Field(i).Int(); got != want {
					t.Errorf("%s: merged %d want %d (field dropped by Merge?)", name, got, want)
				}
			case reflect.Uint64:
				if got, want := m.Field(i).Uint(), av.Field(i).Uint()+bv.Field(i).Uint(); got != want {
					t.Errorf("%s: merged %d want %d (field dropped by Merge?)", name, got, want)
				}
			case reflect.Struct:
				check(m.Field(i), av.Field(i), bv.Field(i), name+".")
			}
		}
	}
	check(reflect.ValueOf(merged), reflect.ValueOf(a), reflect.ValueOf(b), "")
}

// Fork must share programmed state without re-encoding: a fork taken
// from a cluster mid-life computes bit-identically to a freshly
// programmed cluster, even while the origin keeps computing.
func TestClusterForkBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vals := randBlockVals(rng, 10, 10, 16, 0.7)
	cfg := DefaultClusterConfig()

	base := mustCluster(t, vals, cfg)
	fresh := mustCluster(t, vals, cfg)
	x := randVec(rng, 10, 8, 0.9)

	// Age the base so its stats and scratch differ from a fresh cluster.
	for i := 0; i < 3; i++ {
		if _, err := base.MulVec(x); err != nil {
			t.Fatal(err)
		}
	}
	fork := base.Fork()
	if fork.Stats().Ops != 0 {
		t.Error("fork inherited statistics")
	}
	want, err := fresh.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fork.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: fork %x vs fresh %x", i, got[i], want[i])
		}
	}

	// Concurrent MulVec on origin and fork must be race-free (shared
	// programmed planes are read-only; scratch is private).
	done := make(chan error, 2)
	for _, c := range []*Cluster{base, fork} {
		go func(c *Cluster) {
			var err error
			for i := 0; i < 5 && err == nil; i++ {
				_, err = c.MulVec(x)
			}
			done <- err
		}(c)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// With error injection, a fork draws the same error sequence a freshly
// programmed cluster would (fresh sampler at the configured seed).
// TestClusterForkDerivedErrorStreams pins the fork RNG contract: every
// fork gets its own deterministically derived error stream. Previously
// all forks replayed cfg.Seed, so concurrent forks (the ApplyBatch
// worker pool, the serving layer's lease pool) drew *correlated* error
// sequences — a Monte-Carlo sample of N forks held far fewer than N
// independent draws. Forks are now seeded by DeriveSeed(origin,
// streamFork+i), which is (a) distinct per fork and from the origin, and
// (b) a pure function of the origin seed and fork order, so forked
// execution stays reproducible.
func TestClusterForkDerivedErrorStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	vals := randBlockVals(rng, 8, 8, 10, 0.8)
	cfg := DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.Seed = 1234
	cfg.Device.ProgError = 0.01

	base := mustCluster(t, vals, cfg)
	twin := mustCluster(t, vals, cfg)
	x := randVec(rng, 8, 6, 0.9)
	if _, err := base.MulVec(x); err != nil { // advance base's sampler
		t.Fatal(err)
	}

	f1, f2 := base.Fork(), base.Fork()
	if f1.noiseSeed == base.noiseSeed || f2.noiseSeed == base.noiseSeed {
		t.Fatalf("fork replays the origin's error stream (seed %d)", base.noiseSeed)
	}
	if f1.noiseSeed == f2.noiseSeed {
		t.Fatalf("sibling forks share error stream %d", f1.noiseSeed)
	}

	// Reproducibility: fork i of an identical cluster draws the same
	// stream, regardless of how far the origin's own sampler advanced.
	g1, g2 := twin.Fork(), twin.Fork()
	if g1.noiseSeed != f1.noiseSeed || g2.noiseSeed != f2.noiseSeed {
		t.Fatalf("fork streams not reproducible: (%d,%d) vs (%d,%d)",
			f1.noiseSeed, f2.noiseSeed, g1.noiseSeed, g2.noiseSeed)
	}
	want, err := f1.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g1.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: fork-of-twin %x vs fork-of-base %x under injected errors", i, got[i], want[i])
		}
	}
}

func TestClusterResetStats(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	c := mustCluster(t, randBlockVals(rng, 6, 6, 8, 0.8), DefaultClusterConfig())
	if _, err := c.MulVec(randVec(rng, 6, 4, 0.9)); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Ops == 0 || c.Stats().Conversions == 0 {
		t.Fatal("stats empty after MulVec")
	}
	c.ResetStats()
	if !reflect.DeepEqual(*c.Stats(), ComputeStats{}) {
		t.Errorf("ResetStats left residue: %+v", *c.Stats())
	}
}
