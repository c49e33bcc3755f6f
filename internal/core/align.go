package core

import (
	"errors"
	"fmt"
	"math/big"
)

// MaxPadBits is the maximum mantissa-alignment padding within a block: a
// cluster operand is "a 53-bit mantissa, one sign bit, and up to 64 bits
// of padding" (§III-B), so the exponent spread of the values sharing a
// block may not exceed 64 and the magnitude width may not exceed
// MaxMagnitudeBits = 117. With the sign handled by biasing, the unsigned
// operand is at most OperandBits = 118 bits before AN coding.
const (
	MaxPadBits       = 64
	MantissaBits     = 53
	MaxMagnitudeBits = MantissaBits + MaxPadBits // 117
	OperandBits      = MaxMagnitudeBits + 1      // 118
)

// ErrExponentRange is returned when a value set's exponent spread exceeds
// what a single block encoding can align. The blocking preprocessor
// (internal/blocking) removes such elements to the local processor.
var ErrExponentRange = errors.New("core: exponent range exceeds block alignment capacity")

// BlockCode describes the shared fixed-point encoding of one matrix block
// or vector segment: every participating value v = ±m·2^(e−52) becomes
// the signed integer F = ±(m << (e − MinExp)), and the block carries the
// common scale 2^(MinExp − 52).
type BlockCode struct {
	// MinExp and MaxExp are the leading-digit exponents spanned by the
	// nonzero values (equal when there is a single exponent).
	MinExp, MaxExp int
	// Width is the magnitude width in bits: mant + (MaxExp − MinExp),
	// where mant is 53 for the exact encoding and Mant under a Quant.
	Width int
	// Empty marks a code built from no nonzero values (all-zero block);
	// every encoding under it is zero.
	Empty bool
	// Mant is the retained significand width for quantized codes; 0
	// selects the exact 53-bit encoding (the zero value keeps every
	// pre-existing code bit-identical).
	Mant int
	// Clamped marks a code whose MinExp was raised by a Quant Window:
	// values with exponents below MinExp denormalize toward zero when
	// encoded instead of panicking.
	Clamped bool
}

// mantBits resolves the code's significand width.
func (c BlockCode) mantBits() int {
	if c.Mant == 0 {
		return MantissaBits
	}
	return c.Mant
}

// Scale returns the power-of-two exponent s such that a fixed-point
// integer F under this code represents the value F·2^s.
func (c BlockCode) Scale() int {
	if c.Empty {
		return 0
	}
	return c.MinExp - (c.mantBits() - 1)
}

// PadBits returns the worst-case alignment padding used by the code; the
// paper reports this per matrix (e.g. Pres_Poisson ≤ 14, §VIII-B).
func (c BlockCode) PadBits() int {
	if c.Empty {
		return 0
	}
	return c.MaxExp - c.MinExp
}

// Bias returns the per-block biasing constant of §IV-C: 2^Width, chosen
// from the actual exponent range of the block rather than ISAAC's fixed
// 2^16. Adding it maps every signed operand into [1, 2^(Width+1)).
func (c BlockCode) Bias() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(c.Width))
}

// UnsignedBits is the width of the biased operand (Width+1 ≤ 118).
func (c BlockCode) UnsignedBits() int {
	if c.Empty {
		return 1
	}
	return c.Width + 1
}

// NewBlockCode derives the shared encoding for a set of values, or
// ErrExponentRange if their exponent spread exceeds maxPad (pass
// MaxPadBits for the hardware limit). Zeros are ignored; they encode to 0
// under any code.
func NewBlockCode(vals []float64, maxPad int) (BlockCode, error) {
	return NewBlockCodeQuant(vals, maxPad, Quant{})
}

func expRange(vals []float64) (minE, maxE int, any bool) {
	for _, v := range vals {
		if v == 0 {
			continue
		}
		e := Exponent(v)
		if !any {
			minE, maxE, any = e, e, true
			continue
		}
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	return
}

// Encode converts one value into its signed aligned fixed-point integer
// under the code. For exact (unquantized) codes the conversion is exact:
// Decode(Encode(v)) == v. Quantized codes truncate the significand
// toward zero and flush values below a clamped window, so the round trip
// returns the quantized value instead.
func (c BlockCode) Encode(v float64) *big.Int {
	z := new(big.Int)
	c.encodeInto(z, v)
	return z
}

// encodeInto is Encode writing into an existing integer, the reuse form
// the vector-slicing arena depends on (no allocation once z has
// capacity).
func (c BlockCode) encodeInto(z *big.Int, v float64) {
	m, sh, neg := c.split(v)
	z.SetUint64(m)
	z.Lsh(z, uint(sh))
	if neg {
		z.Neg(z)
	}
}

// split returns v's aligned integer under the code as a sign and a
// significand with a left shift: F = ±m·2^sh, with m < 2^53 and m = 0
// (and neg false) for zero and for values a clamped code flushes.
// Encode, the block encoding and the exact kernel's vector encoding all
// go through it.
func (c BlockCode) split(v float64) (m uint64, sh int, neg bool) {
	d := Decompose(v)
	if d.Zero {
		return 0, 0, false
	}
	if c.Empty {
		panic("core: encoding nonzero value under empty block code")
	}
	shift := d.Exp - c.MinExp
	if c.Mant == 0 && !c.Clamped {
		if shift < 0 || shift > c.Width-MantissaBits {
			panic(fmt.Sprintf("core: value exponent %d outside block code [%d,%d]", d.Exp, c.MinExp, c.MaxExp))
		}
		return d.Mant, shift, d.Neg
	}
	// Quantized path: keep mantBits of significand (truncated toward
	// zero, so the leading bit survives and F stays below 2^Width), then
	// align. A clamped code makes shift negative for values below the
	// window; the net right-shift denormalizes them toward zero — the
	// ReFloat flush under a shared block exponent.
	if shift > c.MaxExp-c.MinExp {
		panic(fmt.Sprintf("core: value exponent %d outside block code [%d,%d]", d.Exp, c.MinExp, c.MaxExp))
	}
	net := shift - (MantissaBits - c.mantBits())
	if net >= 0 {
		return d.Mant, net, d.Neg
	}
	if m = d.Mant >> uint(-net); m == 0 {
		return 0, 0, false
	}
	return m, 0, d.Neg
}

// Decode converts a fixed-point integer back to float64 under the given
// rounding mode (exact encodings of doubles round trip losslessly).
func (c BlockCode) Decode(z *big.Int, mode RoundingMode) float64 {
	return RoundBig(z, c.Scale(), mode)
}

// Fits reports whether a value's exponent lies inside the code's range so
// that Encode would succeed (zero always fits).
func (c BlockCode) Fits(v float64) bool {
	if v == 0 {
		return true
	}
	if c.Empty {
		return false
	}
	e := Exponent(v)
	return e <= c.MaxExp && (c.Clamped || e >= c.MinExp)
}

// CombinedScale returns the scale of a dot product between integers
// encoded under a matrix code and a vector code: the product
// Σ F_i·X_i represents Σ F_i·X_i · 2^(mat.Scale()+vec.Scale()).
func CombinedScale(mat, vec BlockCode) int {
	return mat.Scale() + vec.Scale()
}
