package core

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockCodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 1+rng.Intn(30))
		for i := range vals {
			if rng.Intn(5) == 0 {
				continue // keep some zeros
			}
			vals[i] = math.Ldexp(1+rng.Float64(), rng.Intn(40)-20)
			if rng.Intn(2) == 0 {
				vals[i] = -vals[i]
			}
		}
		code, err := NewBlockCode(vals, MaxPadBits)
		if err != nil {
			return true
		}
		for _, v := range vals {
			if v == 0 {
				continue
			}
			z := code.Encode(v)
			if got := code.Decode(z, NearestEven); got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCodeWidths(t *testing.T) {
	code, err := NewBlockCode([]float64{1.0, 1024.0}, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	if code.MinExp != 0 || code.MaxExp != 10 {
		t.Fatalf("exp range %d..%d", code.MinExp, code.MaxExp)
	}
	if code.Width != 63 || code.PadBits() != 10 {
		t.Errorf("width %d pad %d", code.Width, code.PadBits())
	}
	if code.UnsignedBits() != 64 {
		t.Errorf("unsigned bits %d", code.UnsignedBits())
	}
	if code.Bias().BitLen() != 64 { // 2^63
		t.Errorf("bias bitlen %d", code.Bias().BitLen())
	}
}

func TestBlockCodeMaxWidth(t *testing.T) {
	// Exactly the hardware limit: spread 64 → width 117, operand 118.
	code, err := NewBlockCode([]float64{1, math.Ldexp(1, 64)}, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	if code.Width != MaxMagnitudeBits {
		t.Errorf("width %d != %d", code.Width, MaxMagnitudeBits)
	}
	if code.UnsignedBits() != OperandBits {
		t.Errorf("operand bits %d != %d", code.UnsignedBits(), OperandBits)
	}
	// One more and it must fail.
	if _, err := NewBlockCode([]float64{1, math.Ldexp(1, 65)}, MaxPadBits); !errors.Is(err, ErrExponentRange) {
		t.Errorf("spread 65 accepted: %v", err)
	}
}

func TestBlockCodeEmpty(t *testing.T) {
	code, err := NewBlockCode([]float64{0, 0}, MaxPadBits)
	if err != nil || !code.Empty {
		t.Fatalf("empty code: %+v err %v", code, err)
	}
	if z := code.Encode(0); z.Sign() != 0 {
		t.Error("zero should encode to zero")
	}
}

func TestBlockCodeFits(t *testing.T) {
	code, _ := NewBlockCode([]float64{1, 16}, MaxPadBits)
	for v, want := range map[float64]bool{
		0: true, 1: true, 1.99: true, 16: true, 31: true,
		32: false, 0.5: false,
	} {
		if got := code.Fits(v); got != want {
			t.Errorf("Fits(%g) = %v", v, got)
		}
	}
}

func TestEncodeScaleConsistency(t *testing.T) {
	// value = F · 2^Scale exactly.
	code, _ := NewBlockCode([]float64{3.0, 0.75}, MaxPadBits)
	f := code.Encode(3.0)
	scale := code.Scale()
	got := new(big.Float).SetInt(f)
	got.SetMantExp(got, scale)
	v, _ := got.Float64()
	if v != 3.0 {
		t.Errorf("F·2^scale = %g", v)
	}
}

func TestCombinedScale(t *testing.T) {
	a, _ := NewBlockCode([]float64{4}, MaxPadBits)   // MinExp 2
	b, _ := NewBlockCode([]float64{0.5}, MaxPadBits) // MinExp -1
	if got := CombinedScale(a, b); got != (2-52)+(-1-52) {
		t.Errorf("CombinedScale = %d", got)
	}
}

func TestNewBlockRejectsDuplicates(t *testing.T) {
	_, err := NewBlock(2, 2, []Coef{{0, 0, 1}, {0, 0, 2}}, MaxPadBits)
	if err == nil {
		t.Error("duplicate coefficient accepted")
	}
}

func TestNewBlockRejectsOutOfRange(t *testing.T) {
	if _, err := NewBlock(2, 2, []Coef{{2, 0, 1}}, MaxPadBits); err == nil {
		t.Error("out-of-range coefficient accepted")
	}
}

func TestBlockRowBounds(t *testing.T) {
	b, err := NewBlock(1, 3, []Coef{{0, 0, 2}, {0, 1, -3}, {0, 2, 5}}, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	// RowPos = F(2)+F(5), RowNeg = F(-3).
	pos := new(big.Int).Add(b.Code.Encode(2), b.Code.Encode(5))
	neg := b.Code.Encode(-3)
	if b.RowPos[0].Cmp(pos) != 0 || b.RowNeg[0].Cmp(neg) != 0 {
		t.Errorf("row bounds wrong: %v %v", b.RowPos[0], b.RowNeg[0])
	}
	if b.NNZ() != 3 || b.Density() != 1 {
		t.Errorf("nnz %d density %g", b.NNZ(), b.Density())
	}
}

func TestMulVecExactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	vals := randBlockVals(rng, 5, 7, 25, 0.8)
	b, err := NewBlockDense(vals, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, 7, 20, 0.9)
	for _, mode := range []RoundingMode{TowardNegInf, NearestEven, TowardPosInf, TowardZero} {
		y, err := b.MulVecExact(x, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if want := referenceDot(vals[i], x, mode); y[i] != want {
				t.Fatalf("mode %v row %d: %g vs %g", mode, i, y[i], want)
			}
		}
	}
}

func TestStoredBitsMatchesPaperExamples(t *testing.T) {
	// Pres_Poisson-like narrow block: ≤14 pad bits → ≤68 stored (§VIII-B).
	narrow := []float64{1, 2, math.Ldexp(1.5, 13)}
	code, _ := NewBlockCode(narrow, MaxPadBits)
	b, _ := NewBlock(1, 3, []Coef{{0, 0, narrow[0]}, {0, 1, narrow[1]}, {0, 2, narrow[2]}}, MaxPadBits)
	if b.StoredBits() != code.UnsignedBits() || b.StoredBits() > 68 {
		t.Errorf("narrow stored bits %d", b.StoredBits())
	}
}

// TestBlockPresentCells checks the row-wise present-cell storage against
// the coefficients it was built from: every nonzero lands in its row
// once, with its column, value and aligned integer (the big.Int Encode
// of the value), zeros are dropped but still count for duplicate
// detection, At reads absent cells as zero, and the row bounds are the
// sums of the row's positive and negative integers. Quantized codes,
// including a clamped window that flushes small values to a zero F,
// and shuffled input order are covered.
func TestBlockPresentCells(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial, q := range []Quant{{}, {Mant: 8}, {Mant: 8, Window: 6}, {}, {Mant: 20}} {
		m, n := 1+rng.Intn(9), 1+rng.Intn(70)
		vals := randBlockVals(rng, m, n, []int{3, 40, MaxPadBits, 20, 12}[trial], 0.5)
		var coefs []Coef
		for i := range vals {
			for j, v := range vals[i] {
				if v != 0 || rng.Intn(8) == 0 { // some explicit zeros
					coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
				}
			}
		}
		rng.Shuffle(len(coefs), func(a, b int) { coefs[a], coefs[b] = coefs[b], coefs[a] })
		b, err := NewBlockQuant(m, n, coefs, MaxPadBits, q)
		if err != nil {
			t.Fatal(err)
		}
		nnz := 0
		f := new(big.Int)
		for i := 0; i < m; i++ {
			pos, neg := new(big.Int), new(big.Int)
			seen := map[int]bool{}
			for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
				j := int(b.Cols[p])
				if seen[j] || b.Vals[p] != vals[i][j] || b.Vals[p] == 0 {
					t.Fatalf("trial %d row %d: cell %d col %d val %g (dense %g, seen %v)", trial, i, p, j, b.Vals[p], vals[i][j], seen[j])
				}
				seen[j] = true
				if want := b.Code.Encode(b.Vals[p]); b.F[p].Big(f).Cmp(want) != 0 {
					t.Fatalf("trial %d row %d col %d: F %s, Encode %s", trial, i, j, f, want)
				}
				if f.Sign() > 0 {
					pos.Add(pos, f)
				} else {
					neg.Add(neg, f)
				}
			}
			for j := 0; j < n; j++ {
				if vals[i][j] != 0 {
					nnz++
				}
				if b.At(i, j) != vals[i][j] {
					t.Fatalf("trial %d: At(%d,%d) = %g, want %g", trial, i, j, b.At(i, j), vals[i][j])
				}
			}
			if b.RowPos[i].Cmp(pos) != 0 || b.RowNeg[i].Cmp(neg) != 0 {
				t.Fatalf("trial %d row %d: bounds %s/%s, want %s/%s", trial, i, b.RowPos[i], b.RowNeg[i], pos, neg)
			}
		}
		if b.NNZ() != nnz || b.RowPtr[m] != nnz {
			t.Fatalf("trial %d: NNZ %d, RowPtr end %d, want %d", trial, b.NNZ(), b.RowPtr[m], nnz)
		}
	}
	for _, dup := range [][]Coef{{{1, 1, 0}, {0, 1, 3}, {1, 1, 2}}, {{1, 1, 2}, {0, 1, 3}, {1, 1, 0}}} {
		if _, err := NewBlock(2, 2, dup, MaxPadBits); err == nil {
			t.Errorf("duplicate with an explicit zero accepted: %v", dup)
		}
	}
	// A row whose positive integers sum past 2^128: 4,096 coefficients
	// just under 2^117 after the full 64-bit alignment spread.
	wide := []Coef{{0, 0, -1}}
	for j := 1; j < 4096; j++ {
		wide = append(wide, Coef{Row: 0, Col: j, Val: math.Ldexp(1.875, 64)})
	}
	b, err := NewBlock(1, 4096, wide, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(b.Code.Encode(wide[1].Val), big.NewInt(4095))
	if b.RowPos[0].BitLen() <= 128 || b.RowPos[0].Cmp(want) != 0 || b.RowNeg[0].Cmp(b.Code.Encode(-1)) != 0 {
		t.Errorf("wide row bounds %s/%s, want %s/%s", b.RowPos[0], b.RowNeg[0], want, b.Code.Encode(-1))
	}
}
