package core

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Coef is one matrix coefficient placed inside a block, with coordinates
// local to the block (0 ≤ Row < M, 0 ≤ Col < N).
type Coef struct {
	Row, Col int
	Val      float64
}

// Block is a sparse-matrix sub-block encoded into the shared aligned
// fixed-point format of its cluster (§III-B). It stores only the present
// cells, row by row; absent elements are exact zeros, which still
// occupy crossbar cells (programmed to the biased encoding of zero).
type Block struct {
	M, N int // M matrix rows (crossbar output columns), N matrix cols (inputs)
	Code BlockCode

	// Row i's present cells are p in [RowPtr[i], RowPtr[i+1]), in input
	// order: column Cols[p], signed aligned integer F[p] and original
	// double Vals[p] (kept for reference paths). A nonzero value that a
	// clamped quantization flushes is present with F[p] zero.
	RowPtr []int
	Cols   []int32
	F      []Int128
	Vals   []float64

	// RowPos[i] = Σ_j max(F[i][j], 0) and RowNeg[i] = Σ_j min(F[i][j], 0)
	// bound any partial dot product of row i with a binary vector slice;
	// the early-termination interval test uses them (§IV-B).
	RowPos, RowNeg []*big.Int
}

// Int128 is a signed integer held as a sign and a two-word magnitude
// Hi·2^64 + Lo: the form of a block's aligned coefficients, whose
// magnitudes stay below 2^MaxMagnitudeBits.
type Int128 struct {
	Lo, Hi uint64
	Neg    bool
}

// IsZero reports whether f is zero.
func (f Int128) IsZero() bool { return f.Lo == 0 && f.Hi == 0 }

// Big sets z to f and returns it.
func (f Int128) Big(z *big.Int) *big.Int {
	z.SetUint64(f.Hi)
	z.Lsh(z, 64)
	z.Add(z, new(big.Int).SetUint64(f.Lo))
	if f.Neg {
		z.Neg(z)
	}
	return z
}

// encode128 is Encode for values whose aligned magnitude fits two words.
func (c BlockCode) encode128(v float64) Int128 {
	m, sh, neg := c.split(v)
	if sh < 64 {
		return Int128{Lo: m << uint(sh), Hi: m >> uint(64-sh), Neg: neg} // a 64-bit shift is 0
	}
	return Int128{Hi: m << uint(sh-64), Neg: neg}
}

// NewBlock encodes a set of coefficients into an M×N block. maxPad bounds
// the exponent spread (MaxPadBits for the hardware limit); coefficients
// outside the range make the whole constructor fail — the blocking
// preprocessor removes such elements *before* building blocks.
func NewBlock(m, n int, coefs []Coef, maxPad int) (*Block, error) {
	return NewBlockQuant(m, n, coefs, maxPad, Quant{})
}

// NewBlockQuant is NewBlock under a quantization policy: coefficients are
// encoded with truncated significands (and, under a Window, a clamped
// shared exponent), so the block programs into fewer bit-slice planes.
// The zero Quant reproduces NewBlock exactly. Vals always stores the
// original doubles; only the fixed-point image F is quantized, and the
// early-termination row bounds are computed from F, so they remain valid
// bounds for the quantized arithmetic.
func NewBlockQuant(m, n int, coefs []Coef, maxPad int, q Quant) (*Block, error) {
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("core: block dimensions %dx%d", m, n)
	}
	vals := make([]float64, len(coefs))
	for i, c := range coefs {
		if c.Row < 0 || c.Row >= m || c.Col < 0 || c.Col >= n {
			return nil, fmt.Errorf("core: coefficient (%d,%d) outside %dx%d block", c.Row, c.Col, m, n)
		}
		vals[i] = c.Val
	}
	code, err := NewBlockCodeQuant(vals, maxPad, q)
	if err != nil {
		return nil, err
	}
	if code.Width > MaxMagnitudeBits {
		return nil, fmt.Errorf("%w: %d magnitude bits > %d", ErrExponentRange, code.Width, MaxMagnitudeBits)
	}
	// Group the coefficients by row (a counting sort that keeps input
	// order within a row); duplicates, zeros included, are caught with
	// one column stamp per row.
	start := make([]int, m+1)
	nnz := 0
	for _, c := range coefs {
		start[c.Row+1]++
		if c.Val != 0 {
			nnz++
		}
	}
	for i := 0; i < m; i++ {
		start[i+1] += start[i]
	}
	order := make([]int32, len(coefs))
	for k, c := range coefs {
		order[start[c.Row]] = int32(k)
		start[c.Row]++
	}
	b := &Block{M: m, N: n, Code: code, RowPtr: make([]int, m+1),
		Cols: make([]int32, 0, nnz), F: make([]Int128, 0, nnz), Vals: make([]float64, 0, nnz)}
	stamp := make([]int32, n)
	for k := range stamp {
		stamp[k] = -1
	}
	from := 0
	for i := 0; i < m; i++ {
		for _, k := range order[from:start[i]] {
			c := coefs[k]
			if stamp[c.Col] == int32(i) {
				return nil, fmt.Errorf("core: duplicate coefficient at (%d,%d)", c.Row, c.Col)
			}
			stamp[c.Col] = int32(i)
			if c.Val == 0 {
				continue
			}
			b.Cols = append(b.Cols, int32(c.Col))
			b.F = append(b.F, code.encode128(c.Val))
			b.Vals = append(b.Vals, c.Val)
		}
		from = start[i]
		b.RowPtr[i+1] = len(b.F)
	}
	b.rowBounds()
	return b, nil
}

// rowBounds computes RowPos and RowNeg. A row sum of two-word
// magnitudes fits three words; one word slab backs every bound.
func (b *Block) rowBounds() {
	const per = 192 / wordBits
	words := make([]big.Word, 2*b.M*per)
	ints := make([]big.Int, 2*b.M)
	b.RowPos, b.RowNeg = make([]*big.Int, b.M), make([]*big.Int, b.M)
	for i := 0; i < b.M; i++ {
		var sums [2][3]uint64 // positive, negative magnitude
		for _, f := range b.F[b.RowPtr[i]:b.RowPtr[i+1]] {
			s := &sums[0]
			if f.Neg {
				s = &sums[1]
			}
			var cy uint64
			s[0], cy = bits.Add64(s[0], f.Lo, 0)
			s[1], cy = bits.Add64(s[1], f.Hi, cy)
			s[2] += cy
		}
		for side, s := range sums {
			ws := words[(2*i+side)*per : (2*i+side+1)*per : (2*i+side+1)*per]
			for w := range ws {
				ws[w] = big.Word(s[w*wordBits/64] >> uint(w*wordBits%64))
			}
			z := ints[2*i+side].SetBits(ws)
			if side == 1 {
				z.Neg(z)
				b.RowNeg[i] = z
			} else {
				b.RowPos[i] = z
			}
		}
	}
}

// NewBlockDense encodes a dense M×N value matrix (rows of equal length).
func NewBlockDense(vals [][]float64, maxPad int) (*Block, error) {
	m := len(vals)
	if m == 0 {
		return nil, fmt.Errorf("core: empty dense block")
	}
	n := len(vals[0])
	var coefs []Coef
	for i, row := range vals {
		if len(row) != n {
			return nil, fmt.Errorf("core: ragged dense block")
		}
		for j, v := range row {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	return NewBlock(m, n, coefs, maxPad)
}

// NNZ returns the number of nonzero coefficients mapped into the block.
func (b *Block) NNZ() int { return len(b.F) }

// At returns the original double at local coordinates (i, j).
func (b *Block) At(i, j int) float64 {
	for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
		if int(b.Cols[p]) == j {
			return b.Vals[p]
		}
	}
	return 0
}

// Density is NNZ/(M·N), the d_block of §V-A.
func (b *Block) Density() float64 { return float64(b.NNZ()) / float64(b.M*b.N) }

// StoredBits returns the biased operand width actually needed by this
// block (the paper reports e.g. 107 stored bits per cluster for nasasrb
// vs ≤ 67 for Pres_Poisson, §VIII-B).
func (b *Block) StoredBits() int { return b.Code.UnsignedBits() }

// MulVecExact computes the block MVM in exact integer arithmetic (no
// hardware model): y_i = Round(Σ_j F[i][j]·X_j · 2^scale). It is the
// reference the cluster engine is tested against.
func (b *Block) MulVecExact(x []float64, mode RoundingMode) ([]float64, error) {
	return b.MulVecExactQuant(x, mode, Quant{})
}

// MulVecExactQuant is MulVecExact with the input vector encoded under a
// quantization policy, the oracle for clusters running with a
// VectorQuant: the exact integer product of the (possibly quantized)
// block image F with the quantized vector image.
func (b *Block) MulVecExactQuant(x []float64, mode RoundingMode, q Quant) ([]float64, error) {
	if len(x) != b.N {
		return nil, fmt.Errorf("core: vector length %d != block cols %d", len(x), b.N)
	}
	vs, err := SliceVectorQuant(x, DefaultVectorMaxPad, q)
	if err != nil {
		return nil, err
	}
	scale := CombinedScale(b.Code, vs.Code)
	y := make([]float64, b.M)
	acc := new(big.Int)
	term := new(big.Int)
	f := new(big.Int)
	for i := 0; i < b.M; i++ {
		acc.SetInt64(0)
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			term.Mul(b.F[p].Big(f), vs.Ints[b.Cols[p]])
			acc.Add(acc, term)
		}
		y[i] = RoundBig(acc, scale, mode)
	}
	return y, nil
}
