package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"memsci/internal/softfp"
)

// oracleDot returns Σ_k a_k·x_k rounded once under mode, computed from
// the float64 operands alone and sharing no code with the engine: each
// operand is split by math.Frexp into an integer significand and a power
// of two, the products are summed exactly in big.Int at the lowest
// product exponent, and softfp.Round rounds the sum.
func oracleDot(a, x []float64, mode softfp.Rounding) float64 {
	type product struct {
		sig *big.Int
		exp int
	}
	var terms []product
	low := math.MaxInt
	for k := range a {
		if a[k] == 0 || x[k] == 0 {
			continue
		}
		sa, ea := frexpInt(a[k])
		sx, ex := frexpInt(x[k])
		terms = append(terms, product{sa.Mul(sa, sx), ea + ex})
		low = min(low, ea+ex)
	}
	sum := new(big.Int)
	for _, p := range terms {
		sum.Add(sum, p.sig.Lsh(p.sig, uint(p.exp-low)))
	}
	y, _ := softfp.Round(sum, low, mode)
	return y
}

// frexpInt splits a finite nonzero v into an integer significand and an
// exponent with v = sig·2^exp exactly: Frexp's fraction has at most 53
// significant bits, so scaling it by 2^53 leaves an integer.
func frexpInt(v float64) (*big.Int, int) {
	frac, exp := math.Frexp(v)
	return big.NewInt(int64(math.Ldexp(frac, 53))), exp - 53
}

// oracleOperand returns a random nonzero float64 whose leading binary
// digit has exponent lead (−1074 ≤ lead ≤ 1023): a significand of up to
// 53 bits, usually all 53, at a power of two no lower than 2^−1074, so
// the value is exact in float64 — a subnormal when lead < −1022.
func oracleOperand(rng *rand.Rand, lead int) float64 {
	bits := min(53, lead+1075)
	if rng.Intn(4) == 0 {
		bits = 1 + rng.Intn(bits)
	}
	sig := uint64(1)<<(bits-1) | rng.Uint64()&(1<<(bits-1)-1)
	v := math.Ldexp(float64(sig), lead-(bits-1))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// oracleValues fills n values, about density of them nonzero, with
// leading exponents in [lo, lo+spread], pinning both ends of the range
// when n allows; the rest are +0 or −0.
func oracleValues(rng *rand.Rand, n, lo, spread int, density float64) []float64 {
	v := make([]float64, n)
	for k := range v {
		switch {
		case rng.Float64() < density:
			v[k] = oracleOperand(rng, lo+rng.Intn(spread+1))
		case rng.Intn(2) == 0:
			v[k] = math.Copysign(0, -1)
		}
	}
	if n >= 2 {
		v[0] = oracleOperand(rng, lo)
		v[n-1] = oracleOperand(rng, lo+spread)
	}
	return v
}

// TestKernelEquivalenceIndependentOracle holds the exact kernel and the
// big.Int reference to oracleDot, an exactly rounded dot product that
// uses none of the engine's alignment, slicing, bias or fixed-width
// code: every row of every block, under all four rounding modes, with
// early termination on and off. Blocks span exponent spreads up to
// MaxPadBits and vectors up to the full float64 range (VectorMaxPad
// admits it); operands include subnormals and ±0, and products range
// from far below the subnormal floor to past the overflow threshold.
func TestKernelEquivalenceIndependentOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	modes := map[RoundingMode]softfp.Rounding{
		TowardNegInf: softfp.TowardNegInf,
		NearestEven:  softfp.NearestEven,
		TowardPosInf: softfp.TowardPosInf,
		TowardZero:   softfp.TowardZero,
	}
	order := []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero}
	blockSpreads := []int{0, 3, 20, 52, MaxPadBits}
	var rows, subnormal, overflow, zero, fullBlock, fullVector, fullVectorNoET int
	for trial := 0; trial < 900; trial++ {
		mode := order[trial%len(order)]
		cfg := DefaultClusterConfig()
		cfg.Rounding = mode
		cfg.DisableEarlyTermination = trial%3 == 0

		// The block's exponents sit in one of three regimes: ordinary,
		// subnormal, or high enough that products overflow.
		bs := blockSpreads[rng.Intn(len(blockSpreads))]
		var blo int
		switch trial % 5 {
		case 0:
			blo = -1074 + rng.Intn(60)
		case 1:
			blo = 1023 - bs - rng.Intn(80)
		default:
			blo = rng.Intn(121) - 60 - bs/2
		}
		m, n := 1+rng.Intn(8), 2+rng.Intn(14)
		vals := make([][]float64, m)
		for i := range vals {
			vals[i] = oracleValues(rng, n, blo, bs, 0.6)
		}
		if m > 1 {
			clear(vals[rng.Intn(m)]) // an empty row
		}
		blk, err := NewBlockDense(vals, MaxPadBits)
		if err != nil {
			t.Fatalf("trial %d: NewBlockDense: %v", trial, err)
		}
		ref, err := newCluster(blk, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		kc, err := NewCluster(blk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for call := 0; call < 3; call++ {
			// Vector spreads run from one binade to the whole float64
			// range; the widest stay few because the reference walks
			// every slice of them when early termination is off.
			vs := []int{0, 8, 60, 300}[rng.Intn(4)]
			if call == 2 && (trial%6 == 1 || trial%36 == 3) {
				vs = 2097
			}
			vlo := max(-1074, min(1023-vs, rng.Intn(2201)-1100-vs/2))
			x := oracleValues(rng, n, vlo, vs, 0.8)
			what := fmt.Sprintf("trial %d call %d (mode %v, early termination %v, block 2^%d+%d, vector 2^%d+%d)",
				trial, call, mode, !cfg.DisableEarlyTermination, blo, bs, vlo, vs)
			yk, err := kc.MulVec(x)
			if err != nil {
				t.Fatalf("%s: kernel: %v", what, err)
			}
			yr, err := ref.MulVec(x)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			for i := range vals {
				want := oracleDot(vals[i], x, modes[mode])
				for _, got := range []struct {
					path string
					y    float64
				}{{kc.KernelName(), yk[i]}, {"reference", yr[i]}} {
					if math.Float64bits(got.y) != math.Float64bits(want) {
						t.Fatalf("%s row %d: %s gives %v (%#x), oracle %v (%#x)\nrow %v\nx %v",
							what, i, got.path, got.y, math.Float64bits(got.y), want, math.Float64bits(want), vals[i], x)
					}
				}
				rows++
				switch abs := math.Abs(want); {
				case abs == 0:
					zero++
				case abs < 0x1p-1022:
					subnormal++
				case abs >= math.MaxFloat64:
					overflow++
				}
				if bs == MaxPadBits {
					fullBlock++
				}
				if vs == 2097 {
					fullVector++
					if cfg.DisableEarlyTermination {
						fullVectorNoET++
					}
				}
			}
		}
	}
	coverage := fmt.Sprintf("%d rows: %d subnormal, %d overflowing, %d zero outputs; %d rows at block spread %d, %d at vector spread 2097 (%d without early termination)",
		rows, subnormal, overflow, zero, fullBlock, MaxPadBits, fullVector, fullVectorNoET)
	t.Log(coverage)
	if rows < 10000 || subnormal < 100 || overflow < 100 || zero < 100 || fullBlock < 1000 || fullVector < 100 || fullVectorNoET < 50 {
		t.Fatalf("coverage too thin: %s", coverage)
	}
}
