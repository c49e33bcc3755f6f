package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memsci/internal/matgen"
)

// TestKernelEquivalenceProperty is the packed kernel's golden gate:
// across random hardware configurations — all rounding modes, AN on/off,
// early termination on/off, CIC on/off, headstart on/off, 1- and 2-bit
// cells, matrix/vector quantization, error injection (lane reduction)
// or none (codeword reduction), and exponent spreads that exercise the
// 64-bit, 128-bit and multi-word decode tiers — the packed kernel must
// produce bit-identical outputs and DeepEqual-identical statistics to
// the forced generic kernel, call after call. At least 4000 vector
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
		gen, kc := kernelPair(t, blk, cfg)
		for call := 0; call < 8; call++ {
			var x []float64
			if call == 3 {
				x = make([]float64, n) // zero vector
			} else {
				x = randVec(rng, n, spread, 0.8)
			}
			if assertKernelsAgree(t, gen, kc, x, fmt.Sprintf("trial %d call %d", trial, call)) {
				cases++
			}
		}
	}
	if cases < 4000 {
		t.Fatalf("property suite covered %d cases, want >= 4000", cases)
	}
}

// kernelPair programs blk twice under cfg: once with the generic kernel
// forced (the oracle) and once with the automatic packed kernel.
func kernelPair(t *testing.T, blk *Block, cfg ClusterConfig) (gen, packed *Cluster) {
	t.Helper()
	genCfg := cfg
	genCfg.Kernel = KernelGeneric
	gen, err := NewCluster(blk, genCfg)
	if err != nil {
		t.Fatalf("NewCluster(generic): %v", err)
	}
	cfg.Kernel = KernelAuto
	if packed, err = NewCluster(blk, cfg); err != nil {
		t.Fatalf("NewCluster(auto): %v", err)
	}
	return gen, packed
}

// assertKernelsAgree applies x to both clusters and requires matching
// errors, Float64bits-equal outputs and DeepEqual cumulative statistics.
// It reports whether a comparison of outputs took place (false when both
// calls failed alike).
func assertKernelsAgree(t *testing.T, gen, kc *Cluster, x []float64, what string) bool {
	t.Helper()
	yg, eg := gen.MulVec(x)
	var want []float64
	if eg == nil {
		want = cloneF64(yg)
	}
	yk, ek := kc.MulVec(x)
	if (eg == nil) != (ek == nil) {
		t.Fatalf("%s: error mismatch generic=%v %s=%v", what, eg, kc.KernelName(), ek)
	}
	if eg != nil {
		return false
	}
	if !bitsEqual(yk, want) {
		t.Fatalf("%s (%s, cfg %+v): outputs differ\nkernel  %v\ngeneric %v",
			what, kc.KernelName(), kc.cfg, yk, want)
	}
	if ks, gs := *kc.Stats(), *gen.Stats(); !reflect.DeepEqual(ks, gs) {
		t.Fatalf("%s (%s, cfg %+v): stats differ\nkernel  %+v\ngeneric %+v",
			what, kc.KernelName(), kc.cfg, ks, gs)
	}
	return true
}

// TestKernelEquivalenceRealSizes runs the packed-vs-generic comparison at
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
			gen, kc := kernelPair(t, sh.blk, cfg)
			want := "codeword/"
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
				assertKernelsAgree(t, gen, kc, x, fmt.Sprintf("%s inject=%v call %d", sh.name, inject, call))
			}
		}
	}
	for _, k := range []string{"codeword/128", "codeword/multi", "lanes/128", "lanes/multi"} {
		if !tiers[k] {
			t.Errorf("no shape ran %s (ran %v)", k, tiers)
		}
	}
}

// TestKernelSelection pins the dispatch policy and its validation: auto
// selects the packed kernel, reducing by codewords without injection and
// by lanes with it; the force-knob accepts exactly the documented names;
// decode width follows the reduction bound.
func TestKernelSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(992))
	vals := randBlockVals(rng, 4, 6, 10, 1)

	if got := mustCluster(t, vals, DefaultClusterConfig()).KernelName(); !strings.HasPrefix(got, "codeword/") {
		t.Errorf("auto kernel without injection = %q, want codeword/*", got)
	}
	inj := DefaultClusterConfig()
	inj.InjectErrors = true
	if got := mustCluster(t, vals, inj).KernelName(); !strings.HasPrefix(got, "lanes/") {
		t.Errorf("auto kernel with injection = %q, want lanes/*", got)
	}
	ref := DefaultClusterConfig()
	ref.ReferenceMVM = true
	if got := mustCluster(t, vals, ref).KernelName(); got != "reference" {
		t.Errorf("reference cluster reports kernel %q", got)
	}
	forced := DefaultClusterConfig()
	forced.Kernel = KernelGeneric
	if got := mustCluster(t, vals, forced).KernelName(); got != "generic" {
		t.Errorf("forced generic reports kernel %q", got)
	}

	blk, err := NewBlockDense(vals, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vectorized", "swar", "blocked"} { // not variants
		bad := DefaultClusterConfig()
		bad.Kernel = name
		if _, err := NewCluster(blk, bad); err == nil {
			t.Errorf("unknown kernel name %q accepted", name)
		}
	}

	// Decode tiers: a 4-bit-significand block of ones has a reduction
	// bound far under 64 bits; a 2^64 exponent spread over 8 columns
	// pushes it past 128.
	narrow := DefaultClusterConfig()
	narrow.MatrixQuant = Quant{Mant: 4}
	narrow.VectorQuant = Quant{Mant: 4}
	if got := mustClusterQuant(t, [][]float64{{1, 1, 1, 1}}, narrow).KernelName(); got != "codeword/64" {
		t.Errorf("narrow block kernel = %q, want codeword/64", got)
	}
	wideVals := [][]float64{{1, ldexp64, 1, 1, 1, 1, 1, 1}}
	if got := mustCluster(t, wideVals, DefaultClusterConfig()).KernelName(); got != "codeword/multi" {
		t.Errorf("wide block kernel = %q, want codeword/multi", got)
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
	for _, name := range []string{"generic", "codeword", "lanes"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			cfg := DefaultClusterConfig()
			switch name {
			case "generic":
				cfg.Kernel = KernelGeneric
			case "lanes":
				cfg.InjectErrors = true
			}
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
	if wordBits != 64 {
		t.Skip("setShifted128 requires 64-bit big.Words")
	}
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
