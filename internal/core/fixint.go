package core

import (
	"math"
	"math/big"
	"math/bits"
)

// This file is the fixed-width arithmetic kernel behind the
// allocation-free cluster MVM hot path. Operand magnitudes in the MVM
// pipeline are bounded by construction — AN-coded operands are at most
// 127 bits, shift-and-add reductions at most sumBits, slice weights at
// most 2^Width — so every intermediate fits in a word count computable
// at NewCluster time. A Fix is a signed integer over a preallocated
// little-endian []big.Word: the operations the inner loop needs (add,
// sub, shift, compare, divmod by the AN constant, IEEE rounding) run in
// place on that storage and perform zero heap allocations once the
// backing slices have reached steady-state capacity. math/big is still
// the semantic reference: every operation is property-tested against
// the equivalent big.Int computation, and the kernels are held bit for
// bit to the big.Int reference MulVec of cluster_ref.go.

// wordBits is the size of a big.Word in bits. The kernels assume 64
// (two-word and four-word register arithmetic, 64-bit divides), and
// NewCluster refuses any other build.
const wordBits = bits.UintSize

// Fix is a fixed-capacity signed integer: an explicit sign over a
// little-endian magnitude. The zero value is the number zero. Storage
// grows through append, so a Fix initialised with enough capacity
// (see newFixWords) never allocates again; an undersized one stays
// correct and merely reallocates.
type Fix struct {
	neg bool // sign; never true when the magnitude is zero
	w   []big.Word
}

// newFixWords returns a Fix with capacity for capWords words.
func newFixWords(capWords int) Fix {
	return Fix{w: make([]big.Word, 0, capWords)}
}

// trim drops leading (most-significant) zero words and normalises the
// sign of zero.
func (z *Fix) trim() {
	n := len(z.w)
	for n > 0 && z.w[n-1] == 0 {
		n--
	}
	z.w = z.w[:n]
	if n == 0 {
		z.neg = false
	}
}

// SetZero sets z to 0.
func (z *Fix) SetZero() {
	z.w = z.w[:0]
	z.neg = false
}

// SetUint sets z to v.
func (z *Fix) SetUint(v uint64) {
	z.neg = false
	z.w = z.w[:0]
	if v != 0 {
		z.w = append(z.w, big.Word(v))
	}
}

// SetWords sets z to the non-negative integer held in a raw
// little-endian accumulator (leading zero words allowed), copying the
// words into z's own storage.
func (z *Fix) SetWords(ws []big.Word) {
	n := len(ws)
	for n > 0 && ws[n-1] == 0 {
		n--
	}
	z.w = append(z.w[:0], ws[:n]...)
	z.neg = false
}

// SetBig sets z to the value of x, copying its magnitude.
func (z *Fix) SetBig(x *big.Int) {
	z.w = append(z.w[:0], x.Bits()...)
	z.neg = x.Sign() < 0
}

// SetFix sets z to the value of x.
func (z *Fix) SetFix(x *Fix) {
	z.w = append(z.w[:0], x.w...)
	z.neg = x.neg
}

// Sign returns -1, 0, or +1.
func (z *Fix) Sign() int {
	if len(z.w) == 0 {
		return 0
	}
	if z.neg {
		return -1
	}
	return 1
}

// BitLen returns the magnitude's bit length (0 for zero).
func (z *Fix) BitLen() int {
	if len(z.w) == 0 {
		return 0
	}
	return (len(z.w)-1)*wordBits + bits.Len(uint(z.w[len(z.w)-1]))
}

// Bit returns bit i of the magnitude.
func (z *Fix) Bit(i int) uint {
	wi := i / wordBits
	if wi >= len(z.w) {
		return 0
	}
	return uint(z.w[wi]>>(uint(i)%wordBits)) & 1
}

// Lsh shifts z left by k bits in place.
func (z *Fix) Lsh(k uint) {
	if len(z.w) == 0 || k == 0 {
		return
	}
	words := int(k) / wordBits
	off := k % uint(wordBits)
	old := len(z.w)
	// Grow: worst case adds words+1 words.
	for i := 0; i < words+1; i++ {
		z.w = append(z.w, 0)
	}
	if off == 0 {
		copy(z.w[words:], z.w[:old])
	} else {
		for i := old - 1; i >= 0; i-- {
			v := z.w[i]
			z.w[i+words+1] |= v >> (uint(wordBits) - off)
			z.w[i+words] = v << off
		}
	}
	for i := 0; i < words; i++ {
		z.w[i] = 0
	}
	z.trim()
}

// magCmp compares two magnitudes.
func magCmp(a, b []big.Word) int {
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Cmp compares z and x as signed values.
func (z *Fix) Cmp(x *Fix) int {
	zs, xs := z.Sign(), x.Sign()
	switch {
	case zs < xs:
		return -1
	case zs > xs:
		return 1
	case zs == 0:
		return 0
	}
	c := magCmp(z.w, x.w)
	if zs < 0 {
		return -c
	}
	return c
}

// magAdd computes z += x on magnitudes, growing z as needed.
func magAdd(z, x []big.Word) []big.Word {
	for len(z) < len(x) {
		z = append(z, 0)
	}
	var carry big.Word
	for i := 0; i < len(x); i++ {
		s, c1 := bits.Add(uint(z[i]), uint(x[i]), uint(carry))
		z[i], carry = big.Word(s), big.Word(c1)
	}
	for i := len(x); carry != 0 && i < len(z); i++ {
		s, c1 := bits.Add(uint(z[i]), 0, uint(carry))
		z[i], carry = big.Word(s), big.Word(c1)
	}
	if carry != 0 {
		z = append(z, carry)
	}
	return z
}

// magSub computes z -= x on magnitudes; requires z >= x.
func magSub(z, x []big.Word) []big.Word {
	var borrow big.Word
	for i := 0; i < len(x); i++ {
		d, b1 := bits.Sub(uint(z[i]), uint(x[i]), uint(borrow))
		z[i], borrow = big.Word(d), big.Word(b1)
	}
	for i := len(x); borrow != 0 && i < len(z); i++ {
		d, b1 := bits.Sub(uint(z[i]), 0, uint(borrow))
		z[i], borrow = big.Word(d), big.Word(b1)
	}
	if borrow != 0 {
		panic("core: fixint magSub underflow")
	}
	return z
}

// magRevSub computes z = x - z on magnitudes; requires x >= z.
func magRevSub(z, x []big.Word) []big.Word {
	for len(z) < len(x) {
		z = append(z, 0)
	}
	var borrow big.Word
	for i := 0; i < len(z); i++ {
		var xv big.Word
		if i < len(x) {
			xv = x[i]
		}
		d, b1 := bits.Sub(uint(xv), uint(z[i]), uint(borrow))
		z[i], borrow = big.Word(d), big.Word(b1)
	}
	if borrow != 0 {
		panic("core: fixint magRevSub underflow")
	}
	return z
}

// addSigned adds the signed operand (xw, xneg) into z in place. xw must
// not alias z.w.
func (z *Fix) addSigned(xw []big.Word, xneg bool) {
	if len(xw) == 0 {
		return
	}
	if len(z.w) == 0 {
		z.w = append(z.w[:0], xw...)
		z.neg = xneg
		return
	}
	if z.neg == xneg {
		z.w = magAdd(z.w, xw)
		return
	}
	switch magCmp(z.w, xw) {
	case 0:
		z.SetZero()
	case 1:
		z.w = magSub(z.w, xw)
	default:
		z.w = magRevSub(z.w, xw)
		z.neg = xneg
	}
	z.trim()
}

// Add computes z += x.
func (z *Fix) Add(x *Fix) { z.addSigned(x.w, x.neg) }

// Sub computes z -= x.
func (z *Fix) Sub(x *Fix) { z.addSigned(x.w, !x.neg) }

// AddBig computes z += x without allocating (x's magnitude words are
// read through big.Int.Bits).
func (z *Fix) AddBig(x *big.Int) { z.addSigned(x.Bits(), x.Sign() < 0) }

// SubBig computes z -= x (the operand -x carries the flipped sign; a
// zero x has no magnitude words, so its sign flag is irrelevant).
func (z *Fix) SubBig(x *big.Int) { z.addSigned(x.Bits(), x.Sign() >= 0) }

// DivModSmall divides the (non-negative) value of z by d in place,
// returning the remainder. Panics on a negative receiver: the reduction
// sums it serves are counts and therefore non-negative.
func (z *Fix) DivModSmall(d uint64) uint64 {
	if z.neg {
		panic("core: fixint DivModSmall of negative value")
	}
	if d == 0 {
		panic("core: fixint division by zero")
	}
	var rem uint64
	for i := len(z.w) - 1; i >= 0; i-- {
		q, r := bits.Div64(rem, uint64(z.w[i]), d)
		z.w[i], rem = big.Word(q), r
	}
	z.trim()
	return rem
}

// setShifted128 sets z to ±(hi·2^64 + lo)·2^shift, writing the three
// destination words directly instead of going through SetUint+Lsh — the
// bridge from the specialized 1-/2-word decode paths into the
// arbitrary-width running sums.
func (z *Fix) setShifted128(hi, lo uint64, shift uint, neg bool) {
	if hi == 0 && lo == 0 {
		z.SetZero()
		return
	}
	words := int(shift) / 64
	off := shift % 64
	w0, w1, w2 := lo, hi, uint64(0)
	if off != 0 {
		w2 = hi >> (64 - off)
		w1 = hi<<off | lo>>(64-off)
		w0 = lo << off
	}
	z.w = z.w[:0]
	for i := 0; i < words; i++ {
		z.w = append(z.w, 0)
	}
	z.w = append(z.w, big.Word(w0), big.Word(w1), big.Word(w2))
	z.neg = neg
	z.trim()
}

// setInt256 sets z to the four-word two's-complement value a.
func (z *Fix) setInt256(a int256) {
	z.neg = int64(a[3]) < 0
	if z.neg {
		var cy uint64
		a[0], cy = bits.Add64(^a[0], 1, 0)
		a[1], cy = bits.Add64(^a[1], 0, cy)
		a[2], cy = bits.Add64(^a[2], 0, cy)
		a[3] = ^a[3] + cy
	}
	z.w = append(z.w[:0], big.Word(a[0]), big.Word(a[1]), big.Word(a[2]), big.Word(a[3]))
	z.trim()
}

// low64 returns the low 64 bits of the magnitude.
func (z *Fix) low64() uint64 {
	var v uint64
	for i := 0; i < len(z.w) && i*wordBits < 64; i++ {
		v |= uint64(z.w[i]) << (uint(i) * wordBits)
	}
	return v
}

// extract64 returns the low 64 bits of magnitude >> shift.
func (z *Fix) extract64(shift uint) uint64 {
	wi := int(shift) / wordBits
	off := shift % uint(wordBits)
	var v uint64
	bit := uint(0)
	for i := wi; i < len(z.w) && bit < 64; i++ {
		w := uint64(z.w[i])
		if i == wi {
			w >>= off
			v |= w << bit
			bit += uint(wordBits) - off
		} else {
			v |= w << bit
			bit += uint(wordBits)
		}
	}
	return v
}

// anyBitBelow reports whether any magnitude bit strictly below position
// pos is set.
func (z *Fix) anyBitBelow(pos uint) bool {
	wi := int(pos) / wordBits
	off := pos % uint(wordBits)
	for i := 0; i < wi && i < len(z.w); i++ {
		if z.w[i] != 0 {
			return true
		}
	}
	if off != 0 && wi < len(z.w) {
		if z.w[wi]&(1<<off-1) != 0 {
			return true
		}
	}
	return false
}

// Round converts the exact value z·2^scale to float64 under the given
// rounding mode. It is the allocation-free equivalent of RoundBig and
// is property-tested to produce bit-identical results, including
// denormal precision loss, gradual underflow, and directed-mode
// overflow clamping.
func (z *Fix) Round(scale int, mode RoundingMode) float64 {
	sign := z.Sign()
	if sign == 0 {
		return 0
	}
	bl := z.BitLen()
	lead := bl - 1 + scale // exponent of the leading binary digit

	// ulp exponent of the target (see RoundBig).
	u := lead - 52
	if u < -1074 {
		u = -1074
	}
	shift := u - scale
	var m uint64
	if shift <= 0 {
		m = z.low64() << uint(-shift) // exact: at most 53 bits by construction
	} else {
		m = z.extract64(uint(shift))
		if z.anyBitBelow(uint(shift)) {
			up := false
			switch mode {
			case TowardZero:
			case TowardNegInf:
				up = sign < 0
			case TowardPosInf:
				up = sign > 0
			case NearestEven:
				// rem vs half = 2^(shift-1): the comparison reduces to the
				// bit at shift-1 and a sticky OR of everything below it.
				if z.Bit(int(shift)-1) == 1 {
					if z.anyBitBelow(uint(shift) - 1) {
						up = true // rem > half
					} else {
						up = m&1 == 1 // tie: round to even
					}
				}
			}
			if up {
				m++
			}
		}
	}
	// m ≤ 2^53 converts exactly. When 2^u and the product are normal,
	// multiplying by 2^u built from its exponent bits is exact; Ldexp
	// covers subnormal and overflowing results.
	mf := float64(m)
	var v float64
	if u >= -1022 && u <= 1023-54 {
		v = mf * math.Float64frombits(uint64(u+1023)<<52)
	} else {
		v = math.Ldexp(mf, u)
	}
	if math.IsInf(v, 0) {
		switch mode {
		case TowardZero:
			v = math.MaxFloat64
		case TowardNegInf:
			if sign > 0 {
				v = math.MaxFloat64
			}
		case TowardPosInf:
			if sign < 0 {
				v = math.MaxFloat64
			}
		}
	}
	if sign < 0 {
		v = -v
	}
	return v
}

// RoundMonotone reports whether z·2^scale and x·2^scale round to the
// same float64, returning that value when they do — the fixint
// equivalent of RoundBigMonotone.
func (z *Fix) RoundMonotone(x *Fix, scale int, mode RoundingMode) (float64, bool) {
	a := z.Round(scale, mode)
	b := x.Round(scale, mode)
	if math.Float64bits(a) == math.Float64bits(b) {
		return a, true
	}
	return 0, false
}

// AppendBig writes z's value into dst (reusing dst's storage) and
// returns it — the bridge to the rare big.Int paths (AN correction).
func (z *Fix) AppendBig(dst *big.Int) *big.Int {
	// SetBits copies into dst's backing when capacity allows? It does
	// not: SetBits aliases. Copy via dst.SetBits on dst's own grown
	// storage is not expressible, so go through the words directly.
	bs := dst.Bits()
	bs = append(bs[:0], z.w...)
	dst.SetBits(bs)
	if z.neg {
		dst.Neg(dst)
	}
	return dst
}
