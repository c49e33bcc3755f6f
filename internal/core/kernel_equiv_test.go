package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memsci/internal/matgen"
)

// TestKernelEquivalenceProperty is the kernels' golden gate: across
// random hardware configurations — all rounding modes, AN on/off, early
// termination on/off, CIC on/off, headstart on/off, 1- and 2-bit cells,
// matrix/vector quantization, error injection (lane kernel) or none
// (exact kernel), and exponent spreads that exercise the 64-bit,
// 128-bit and multi-word decode tiers — the kernel NewCluster selects
// must produce bit-identical outputs and DeepEqual-identical statistics
// to the big.Int reference, call after call. At least 4000 vector
// comparisons are required.
func TestKernelEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	spreads := []int{4, 20, 60}
	quants := []Quant{{}, {Mant: 8}, {Mant: 8, Window: 6}}
	cases := 0
	const trials = 520
	for trial := 0; trial < trials; trial++ {
		cfg := DefaultClusterConfig()
		cfg.Rounding = modes[rng.Intn(len(modes))]
		cfg.DisableAN = rng.Intn(3) == 0
		cfg.DisableEarlyTermination = rng.Intn(4) == 0
		cfg.CIC = rng.Intn(4) != 0
		cfg.Headstart = rng.Intn(4) != 0
		cfg.InjectErrors = rng.Intn(3) == 0
		cfg.Seed = int64(1000 + trial)
		if rng.Intn(3) == 0 {
			cfg.Device.BitsPerCell = 2
		}
		q := quants[rng.Intn(len(quants))]
		cfg.MatrixQuant = q
		cfg.VectorQuant = q
		spread := spreads[rng.Intn(len(spreads))]

		m, n := 1+rng.Intn(10), 1+rng.Intn(14)
		vals := randBlockVals(rng, m, n, spread, 0.85)
		var coefs []Coef
		for i := range vals {
			for j, v := range vals[i] {
				if v != 0 {
					coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
				}
			}
		}
		blk, err := NewBlockQuant(m, n, coefs, MaxPadBits, q)
		if err != nil {
			t.Fatalf("trial %d: NewBlockQuant: %v", trial, err)
		}
		ref, kc := kernelPair(t, blk, cfg)
		for call := 0; call < 8; call++ {
			var x []float64
			if call == 3 {
				x = make([]float64, n) // zero vector
			} else {
				x = randVec(rng, n, spread, 0.8)
			}
			if assertKernelsAgree(t, ref, kc, x, fmt.Sprintf("trial %d call %d", trial, call)) {
				cases++
			}
		}
	}
	if cases < 4000 {
		t.Fatalf("property suite covered %d cases, want >= 4000", cases)
	}
}

// kernelPair programs blk twice under cfg: once on the big.Int
// reference (the oracle) and once on the kernel NewCluster selects.
func kernelPair(t *testing.T, blk *Block, cfg ClusterConfig) (ref, kc *Cluster) {
	t.Helper()
	ref, err := newCluster(blk, cfg, true)
	if err != nil {
		t.Fatalf("newCluster(reference): %v", err)
	}
	if kc, err = NewCluster(blk, cfg); err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return ref, kc
}

// assertKernelsAgree applies x to both clusters and requires matching
// errors, Float64bits-equal outputs and DeepEqual cumulative statistics.
// It reports whether a comparison of outputs took place (false when both
// calls failed alike).
func assertKernelsAgree(t *testing.T, ref, kc *Cluster, x []float64, what string) bool {
	t.Helper()
	yr, er := ref.MulVec(x)
	yk, ek := kc.MulVec(x)
	if (er == nil) != (ek == nil) {
		t.Fatalf("%s: error mismatch reference=%v %s=%v", what, er, kc.KernelName(), ek)
	}
	if er != nil {
		return false
	}
	if !bitsEqual(yk, yr) {
		t.Fatalf("%s (%s, cfg %+v): outputs differ\nkernel    %v\nreference %v",
			what, kc.KernelName(), kc.cfg, yk, yr)
	}
	if ks, rs := *kc.Stats(), *ref.Stats(); !reflect.DeepEqual(ks, rs) {
		t.Fatalf("%s (%s, cfg %+v): stats differ\nkernel    %+v\nreference %+v",
			what, kc.KernelName(), kc.cfg, ks, rs)
	}
	return true
}

// TestKernelEquivalenceRealSizes runs the kernel-vs-reference comparison at
// block shapes whose inputs span one, two and several 64-bit slice words
// (N = 63, 64, 65, 128, 129, 256, M up to 256), with and without error
// injection, plus the two serving shapes of the end-to-end benchmark: a
// 128×128 banded SPD operator at exponent spread 3 and a 256×256 one at
// spread 2, from that benchmark's generator settings, each programmed
// as one block. The widest exponent spread takes both reductions onto
// the multi-word decode tier.
func TestKernelEquivalenceRealSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(995))
	type shape struct {
		name   string
		blk    *Block
		spread int
	}
	var shapes []shape
	for k, n := range []int{63, 64, 65, 128, 129, 256, 65} {
		m := []int{17, 256, 64, 128, 33, 256, 40}[k]
		spread := []int{3, 20, 2, 40, 8, 3, MaxPadBits}[k]
		blk, err := NewBlockDense(randBlockVals(rng, m, n, spread, 0.6), MaxPadBits)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("%dx%d", m, n), blk, spread})
	}
	for _, op := range []struct {
		rows, spread int
		margin       float64
	}{{128, 3, 1}, {256, 2, 2}} {
		spec := matgen.Spec{Name: "equiv", Rows: op.rows, NNZ: op.rows * 9, SPD: true,
			Class: matgen.Banded, Band: 16, ExpSpread: op.spread, Seed: 1000, DiagMargin: op.margin}
		a := spec.Generate()
		var coefs []Coef
		for i := 0; i < a.Rows(); i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				coefs = append(coefs, Coef{Row: i, Col: a.ColIdx[p], Val: a.Vals[p]})
			}
		}
		blk, err := NewBlock(op.rows, op.rows, coefs, MaxPadBits)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{fmt.Sprintf("banded%d/spread%d", op.rows, op.spread), blk, op.spread})
	}
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	tiers := map[string]bool{}
	for si, sh := range shapes {
		for _, inject := range []bool{false, true} {
			cfg := DefaultClusterConfig()
			cfg.Rounding = modes[si%len(modes)]
			cfg.InjectErrors = inject
			cfg.Seed = int64(77 + si)
			ref, kc := kernelPair(t, sh.blk, cfg)
			want := "exact"
			if inject {
				want = "lanes/"
			}
			got := kc.KernelName()
			if !strings.HasPrefix(got, want) {
				t.Fatalf("%s inject=%v: kernel %q, want %s*", sh.name, inject, got, want)
			}
			tiers[got] = true
			for call := 0; call < 3; call++ {
				x := randVec(rng, sh.blk.N, sh.spread, 0.9)
				assertKernelsAgree(t, ref, kc, x, fmt.Sprintf("%s inject=%v call %d", sh.name, inject, call))
			}
		}
	}
	for _, k := range []string{"exact", "lanes/128", "lanes/multi"} {
		if !tiers[k] {
			t.Errorf("no shape ran %s (ran %v)", k, tiers)
		}
	}
}

// TestKernelSelection pins the dispatch policy: NewCluster selects the
// exact kernel without injection and the lane kernel with it, only a
// test's reference cluster runs the big.Int path, and the lane decode
// width follows the reduction bound.
func TestKernelSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(992))
	vals := randBlockVals(rng, 4, 6, 10, 1)

	if got := mustCluster(t, vals, DefaultClusterConfig()).KernelName(); got != "exact" {
		t.Errorf("kernel without injection = %q, want exact", got)
	}
	inj := DefaultClusterConfig()
	inj.InjectErrors = true
	if got := mustCluster(t, vals, inj).KernelName(); !strings.HasPrefix(got, "lanes/") {
		t.Errorf("kernel with injection = %q, want lanes/*", got)
	}
	for _, cfg := range []ClusterConfig{DefaultClusterConfig(), inj} {
		ref := buildCluster(t, vals, cfg, true)
		if got := ref.KernelName(); got != "reference" {
			t.Errorf("reference cluster (inject=%v) reports kernel %q", cfg.InjectErrors, got)
		}
		if got := ref.Fork().KernelName(); got != "reference" {
			t.Errorf("fork of a reference cluster (inject=%v) reports kernel %q", cfg.InjectErrors, got)
		}
	}

	// Lane decode tiers: a 4-bit-significand block of ones has a
	// reduction bound far under 64 bits; a 2^64 exponent spread over 8
	// columns pushes it past 128.
	narrow := inj
	narrow.MatrixQuant = Quant{Mant: 4}
	narrow.VectorQuant = Quant{Mant: 4}
	if got := mustClusterQuant(t, [][]float64{{1, 1, 1, 1}}, narrow).KernelName(); got != "lanes/64" {
		t.Errorf("narrow block kernel = %q, want lanes/64", got)
	}
	wideVals := [][]float64{{1, ldexp64, 1, 1, 1, 1, 1, 1}}
	if got := mustCluster(t, wideVals, inj).KernelName(); got != "lanes/multi" {
		t.Errorf("wide block kernel = %q, want lanes/multi", got)
	}
}

// ldexp64 is 2^64, the widest representable block exponent spread.
var ldexp64 = func() float64 {
	v := 1.0
	for i := 0; i < 64; i++ {
		v *= 2
	}
	return v
}()

// mustClusterQuant is mustCluster building the block under the config's
// MatrixQuant (the NewEngine contract).
func mustClusterQuant(t *testing.T, vals [][]float64, cfg ClusterConfig) *Cluster {
	t.Helper()
	var coefs []Coef
	for i := range vals {
		for j, v := range vals[i] {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	blk, err := NewBlockQuant(len(vals), len(vals[0]), coefs, MaxPadBits, cfg.MatrixQuant)
	if err != nil {
		t.Fatalf("NewBlockQuant: %v", err)
	}
	c, err := NewCluster(blk, cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestKernelSteadyStateZeroAllocs extends the zero-allocation pin to
// every kernel variant: a warm cluster must run MulVec without a single
// heap allocation regardless of which kernel and reduction were selected.
func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	for _, name := range []string{"exact", "lanes"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			cfg := DefaultClusterConfig()
			cfg.InjectErrors = name == "lanes"
			c := mustCluster(t, randBlockVals(rng, 6, 8, 14, 0.9), cfg)
			if got := c.KernelName(); !strings.HasPrefix(got, name) {
				t.Fatalf("cluster runs kernel %q, want %s", got, name)
			}
			xs := make([][]float64, 6)
			for i := range xs {
				xs[i] = randVec(rng, 8, 18, 0.8)
			}
			for _, x := range xs {
				if _, err := c.MulVec(x); err != nil {
					t.Fatalf("warmup MulVec: %v", err)
				}
			}
			k := 0
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := c.MulVec(xs[k%len(xs)]); err != nil {
					t.Fatal(err)
				}
				k++
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s MulVec allocated %.1f/run, want 0", name, allocs)
			}
		})
	}
}

// TestSetShifted128 checks the 128-bit contribution bridge against
// big.Int arithmetic: ±(hi·2^64 + lo)·2^shift for random operands,
// shifts across word boundaries, and the zero edge.
func TestSetShifted128(t *testing.T) {
	rng := rand.New(rand.NewSource(993))
	f := newFixWords(8)
	want, got, tmp := new(big.Int), new(big.Int), new(big.Int)
	for trial := 0; trial < 2500; trial++ {
		hi, lo := rng.Uint64(), rng.Uint64()
		switch trial % 4 {
		case 0:
			hi = 0
		case 1:
			hi, lo = 0, uint64(trial%8)
		}
		shift := uint(rng.Intn(200))
		neg := rng.Intn(2) == 1
		f.setShifted128(hi, lo, shift, neg)
		want.SetUint64(hi)
		want.Lsh(want, 64)
		tmp.SetUint64(lo)
		want.Add(want, tmp)
		want.Lsh(want, shift)
		if neg {
			want.Neg(want)
		}
		f.AppendBig(got)
		if got.Cmp(want) != 0 {
			t.Fatalf("setShifted128(%#x, %#x, %d, %v) = %s, want %s", hi, lo, shift, neg, got, want)
		}
	}
}

// TestKernelEquivalenceSettlePrecheck holds rowSettled's pre-check to
// the full test it short-cuts: settleImpossible must never turn away a
// (row, slice) whose interval endpoints RoundMonotone maps to one
// float64. Running sums are random or sit a few units off a power of
// two, where round-to-nearest preimages straddle two binades; row
// bounds put the interval width around the pre-check's threshold; all
// rounding modes run at ordinary, near-subnormal and near-overflow
// scales.
func TestKernelEquivalenceSettlePrecheck(t *testing.T) {
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}

	// The widest interval that settles: under round-to-nearest,
	// [2^60 − 64, 2^60 + 128] rounds to 2^60 at both ends although it is
	// 1.5 ulps of the running sum 2^60 − 2 wide. A one-ulp pre-check
	// would reject it.
	run, pos, neg := new(big.Int).Lsh(big.NewInt(1), 60), big.NewInt(130), big.NewInt(-62)
	run.Sub(run, big.NewInt(2))
	if _, ok := settleEndpoints(run, pos, neg, 1, 0, NearestEven); !ok {
		t.Fatal("1.5-ulp round-to-nearest interval does not settle")
	}
	if settleImpossible(run.BitLen(), 8, 1, 0) {
		t.Fatal("pre-check rejects the 1.5-ulp interval that settles")
	}

	rng := rand.New(rand.NewSource(996))
	var settled, rejected, tight int
	for trial := 0; trial < 60000; trial++ {
		mode := modes[trial%len(modes)]
		runBits := 1 + rng.Intn(150)
		run := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(runBits)))
		run.SetBit(run, runBits-1, 1)
		if trial%3 == 0 { // a few units below 2^runBits
			run.Lsh(big.NewInt(1), uint(runBits))
			run.Sub(run, big.NewInt(1+rng.Int63n(8)))
		}
		if rng.Intn(2) == 0 {
			run.Neg(run)
		}
		j := 1 + rng.Intn(70)
		rowBits := runBits - 52 - j + 2 + rng.Intn(9) - 5
		if rowBits < 0 {
			rowBits = rng.Intn(3)
		}
		pos, neg := randBelowBits(rng, rowBits), randBelowBits(rng, rowBits)
		if rowBits > 0 {
			if rng.Intn(2) == 0 {
				pos.SetBit(pos, rowBits-1, 1)
			} else {
				neg.SetBit(neg, rowBits-1, 1)
			}
		}
		if trial%7 == 0 && runBits > 60 {
			// Just off a power of two with the interval stretched to the
			// edges of that power's round-to-nearest preimage: ulp/2 below,
			// a full ulp above (about 1.5 ulps of the running sum).
			j = 1 + rng.Intn(6)
			rest := RemainingWeight(j)
			delta := big.NewInt(1 + rng.Int63n(8))
			run.Lsh(big.NewInt(1), uint(runBits))
			run.Sub(run, delta)
			below := new(big.Int).Lsh(big.NewInt(1), uint(runBits-54))
			above := new(big.Int).Lsh(big.NewInt(1), uint(runBits-53))
			neg.Quo(below.Sub(below, delta), rest)
			pos.Quo(above.Add(above, delta), rest)
			neg.Sub(neg, big.NewInt(rng.Int63n(3)))
			pos.Sub(pos, big.NewInt(rng.Int63n(3)))
			if rng.Intn(2) == 0 { // the mirror image below zero
				run.Neg(run)
				pos, neg = neg, pos
			}
		}
		neg.Neg(neg)
		var lead int
		switch trial % 5 {
		case 0:
			lead = -1100 + rng.Intn(110) // down to and across the subnormal floor
		case 1:
			lead = 990 + rng.Intn(40) // up to and across the overflow threshold
		default:
			lead = rng.Intn(2001) - 1000
		}
		scale := lead - runBits + 1
		rb := max(pos.BitLen(), neg.BitLen())
		_, ok := settleEndpoints(run, pos, neg, j, scale, mode)
		if settleImpossible(runBits, rb, j, scale) {
			rejected++
			if ok {
				t.Fatalf("trial %d: pre-check rejects a settling row: run=%s pos=%s neg=%s j=%d scale=%d mode=%v",
					trial, run, pos, neg, j, scale, mode)
			}
		}
		if ok {
			settled++
			if j+rb-2 >= runBits-53 {
				tight++ // within one slice of the pre-check's threshold
			}
		}
	}
	if settled < 5000 || rejected < 5000 || tight < 500 {
		t.Fatalf("coverage too thin: %d settled (%d near the threshold), %d rejected", settled, tight, rejected)
	}
}

// settleEndpoints runs the full interval test of rowSettled on a row
// with running sum run and bounds pos, neg after slice j.
func settleEndpoints(run, pos, neg *big.Int, j, scale int, mode RoundingMode) (float64, bool) {
	rest := RemainingWeight(j)
	var lo, hi Fix
	lo.SetBig(new(big.Int).Add(run, new(big.Int).Mul(rest, neg)))
	hi.SetBig(new(big.Int).Add(run, new(big.Int).Mul(rest, pos)))
	return lo.RoundMonotone(&hi, scale, mode)
}

// randBelowBits returns a uniform non-negative integer below 2^bits.
func randBelowBits(rng *rand.Rand, bits int) *big.Int {
	return new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
}

// TestKernelEquivalenceSettleReplay holds the exact kernel's searched
// settle slices to a brute-force replay of the slice walk: for every
// row, the running sum after slice j is rebuilt with big.Int as
// 2^j·Σ_k F_ik·⌊X_k/2^j⌋ and put to the reference interval test from the
// top slice down, and the first j that settles must be the one the
// kernel reports (ColumnSlicesUsed = W − j). The reference must agree
// in outputs and statistics as well. Covers all four rounding modes,
// headstart on and off, AN on and off, quantized configurations, empty
// rows, zero vectors, products near overflow and in the subnormal
// range, and DisableEarlyTermination.
func TestKernelEquivalenceSettleReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(997))
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	quants := []Quant{{}, {Mant: 8}, {Mant: 12, Window: 10}}
	var rows, settledAt = 0, map[int]bool{}
	for trial := 0; trial < 320; trial++ {
		cfg := DefaultClusterConfig()
		cfg.Rounding = modes[trial%len(modes)]
		cfg.Headstart = trial%2 == 0
		cfg.DisableAN = trial%5 == 0
		cfg.DisableEarlyTermination = trial%9 == 0
		q := quants[rng.Intn(len(quants))]
		cfg.MatrixQuant, cfg.VectorQuant = q, q
		spread := []int{2, 10, 40}[rng.Intn(3)]
		m, n := 1+rng.Intn(12), 1+rng.Intn(20)
		vals := randBlockVals(rng, m, n, spread, 0.5)
		if m > 1 {
			clear(vals[rng.Intn(m)]) // an empty row
		}
		blk := blockQuant(t, vals, q)
		ref, kc := kernelPair(t, blk, cfg)
		if got := kc.KernelName(); got != "exact" {
			t.Fatalf("trial %d: kernel %q, want exact", trial, got)
		}
		for call := 0; call < 5; call++ {
			x := randVec(rng, n, spread+rng.Intn(30), 0.8)
			if call == 2 {
				x = make([]float64, n)
			}
			// Some vectors move the products next to overflow or into
			// the subnormal range, where the pre-check defers to the
			// full test.
			if e := []int{0, 0, 0, 960, -1000, -1040}[(trial+call)%6]; e != 0 {
				for k := range x {
					x[k] = math.Ldexp(x[k], e)
				}
			}
			what := fmt.Sprintf("trial %d call %d", trial, call)
			assertKernelsAgree(t, ref, kc, x, what)
			want := replaySettle(t, blk, x, cfg)
			got := kc.Stats().ColumnSlicesUsed
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s row %d: kernel settles after %d slices, replay after %d (cfg %+v)",
						what, i, got[i], want[i], cfg)
				}
				rows++
				settledAt[want[i]] = true
			}
		}
	}
	if rows < 5000 || len(settledAt) < 20 {
		t.Fatalf("coverage too thin: %d rows, %d distinct settle points", rows, len(settledAt))
	}
}

// replaySettle returns, per row of blk, the slices the walk applies
// before the row settles on x (the vector width when it never does, 0
// for a zero vector or block), computed with big.Int from the block's
// aligned integers and the reference interval test.
func replaySettle(t *testing.T, blk *Block, x []float64, cfg ClusterConfig) []int {
	t.Helper()
	used := make([]int, blk.M)
	vs, err := SliceVectorQuant(x, cfg.VectorMaxPad, cfg.VectorQuant)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Code.Empty || blk.Code.Empty {
		return used
	}
	W, scale := vs.Width, CombinedScale(blk.Code, vs.Code)
	run, term, f := new(big.Int), new(big.Int), new(big.Int)
	for i := range used {
		used[i] = W
		for j := W - 1; j >= 1 && !cfg.DisableEarlyTermination; j-- {
			run.SetInt64(0)
			for p := blk.RowPtr[i]; p < blk.RowPtr[i+1]; p++ {
				term.Rsh(vs.Ints[blk.Cols[p]], uint(j)) // floor division
				run.Add(run, term.Mul(term, blk.F[p].Big(f)))
			}
			run.Lsh(run, uint(j))
			rest := RemainingWeight(j)
			lo := new(big.Int).Mul(rest, blk.RowNeg[i])
			hi := new(big.Int).Mul(rest, blk.RowPos[i])
			if _, ok := IntervalSettled(run, lo, hi, scale, cfg.Rounding); ok {
				used[i] = W - j
				break
			}
		}
	}
	return used
}

// blockQuant builds a block from dense values under a quantization.
func blockQuant(t *testing.T, vals [][]float64, q Quant) *Block {
	t.Helper()
	var coefs []Coef
	for i := range vals {
		for j, v := range vals[i] {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	blk, err := NewBlockQuant(len(vals), len(vals[0]), coefs, MaxPadBits, q)
	if err != nil {
		t.Fatalf("NewBlockQuant: %v", err)
	}
	return blk
}

// TestKernelEquivalenceWideVectors feeds vector segments whose exponent
// spread runs from 100 bits to 2,000 (VectorMaxPad allows 2,100): the
// exact kernel's row sums then leave its four-word register accumulator
// for the multi-word one, and the walk's running sums span dozens of
// words. Outputs and statistics must match the reference, with and
// without early termination, and so must the lane kernel's under
// injection.
func TestKernelEquivalenceWideVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(998))
	modes := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	var narrow, wide int
	for trial, spread := range []int{100, 160, 300, 700, 1000, 1500, 2000, 2090} {
		for _, inject := range []bool{false, true} {
			cfg := DefaultClusterConfig()
			cfg.Rounding = modes[trial%len(modes)]
			cfg.InjectErrors = inject
			cfg.Seed = int64(500 + trial)
			cfg.DisableEarlyTermination = trial%3 == 2 && !inject
			m, n := 3+rng.Intn(6), 4+rng.Intn(12)
			blk, err := NewBlockDense(randBlockVals(rng, m, n, []int{3, 30, MaxPadBits}[trial%3], 0.7), MaxPadBits)
			if err != nil {
				t.Fatal(err)
			}
			ref, kc := kernelPair(t, blk, cfg)
			for call := 0; call < 4; call++ {
				x := randVec(rng, n, min(spread, 2040), 0.9)
				// Pin the spread: the extremes of the range are present.
				top := min(spread-spread/2, 1020)
				x[0] = math.Ldexp(-1.25, top-spread)
				x[n-1] = math.Ldexp(1.75, top)
				if call == 3 {
					x[0] = 0 // only the top of the range
				}
				assertKernelsAgree(t, ref, kc, x, fmt.Sprintf("spread %d inject=%v call %d", spread, inject, call))
				if kc.exact {
					if kc.arena.exact.narrow {
						narrow++
					} else {
						wide++
					}
				}
			}
		}
	}
	if wide < 20 {
		t.Fatalf("only %d calls used the multi-word accumulator (%d the four-word one)", wide, narrow)
	}
}

// TestKernelEquivalenceAddTerm checks addTerm, the exact kernel's multi-word
// accumulate, against big.Int: products at every bit offset, added
// into accumulators whose words are often all ones so that carries run
// past the four-word window.
func TestKernelEquivalenceAddTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	ws := make([]big.Word, 12)
	want, got, term := new(big.Int), new(big.Int), new(big.Int)
	carried := 0
	for trial := 0; trial < 20000; trial++ {
		for w := range ws {
			switch rng.Intn(3) {
			case 0:
				ws[w] = ^big.Word(0)
			case 1:
				ws[w] = big.Word(rng.Uint64())
			default:
				ws[w] = 0
			}
		}
		ws[len(ws)-1] = 0                        // headroom for the carry
		lo, hi := rng.Uint64(), rng.Uint64()>>11 // below 2^117
		m := rng.Uint64() >> uint(rng.Intn(64))
		sh := uint(rng.Intn(64 * 6))
		want.SetBits(append([]big.Word(nil), ws...))
		Int128{Lo: lo, Hi: hi}.Big(term)
		term.Mul(term, new(big.Int).SetUint64(m))
		want.Add(want, term.Lsh(term, sh))
		top := ws[sh/64+4]
		addTerm(ws, lo, hi, m, sh)
		if ws[sh/64+4] != top {
			carried++
		}
		if got.SetBits(ws); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: addTerm(%#x, %#x, %#x, %d) = %x, want %x", trial, lo, hi, m, sh, got, want)
		}
	}
	if carried < 1000 {
		t.Fatalf("only %d trials carried past the window", carried)
	}
}

// TestKernelEquivalenceSetInt256 checks the four-word two's-complement bridge into Fix.
func TestKernelEquivalenceSetInt256(t *testing.T) {
	rng := rand.New(rand.NewSource(1000))
	mod := new(big.Int).Lsh(big.NewInt(1), 256)
	f := newFixWords(4)
	want, got := new(big.Int), new(big.Int)
	for trial := 0; trial < 5000; trial++ {
		var a [4]uint64
		for w := range a {
			if rng.Intn(4) != 0 {
				a[w] = rng.Uint64()
			} else if rng.Intn(2) == 0 {
				a[w] = ^uint64(0)
			}
		}
		f.setInt256(int256(a))
		want.SetInt64(0)
		for w := 3; w >= 0; w-- {
			want.Lsh(want, 64)
			want.Add(want, new(big.Int).SetUint64(a[w]))
		}
		if a[3]>>63 == 1 {
			want.Sub(want, mod)
		}
		if f.AppendBig(got); got.Cmp(want) != 0 {
			t.Fatalf("setInt256(%x) = %s, want %s", a, got, want)
		}
	}
}
