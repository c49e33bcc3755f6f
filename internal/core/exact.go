package core

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// This file implements the exact kernel, the MVM of clusters without
// error injection. There every crossbar conversion is exact and every AN
// check passes, so the slice walk of cluster_fix.go — vector slices most
// significant first, a reduction, decode and settle test per (row,
// slice) — reduces to two facts per row (DESIGN.md §15):
//
//   - The output. After slice j the walk's running sum is
//     R_j = 2^j·Σ_k F_ik·⌊X_k/2^j⌋, where X is the aligned vector. The
//     settle interval R_j + (2^j − 1)·[RowNeg_i, RowPos_i] holds every
//     later interval, since slice j−1 adds 2^(j−1) times a partial dot
//     product inside [RowNeg_i, RowPos_i]. Rounding is monotone, so the
//     value a row settles on is the rounding of the exact sum R_0.
//   - The settle slice s_i: the largest j in [1, W−1] at which
//     rowSettled passes on R_j, or 0 if none does (W is the segment's
//     two's-complement width). Nested intervals make the test monotone
//     in j, so a search over j finds s_i; each probe is one pass over
//     the row's present cells.
//
// Every ComputeStats field then follows from the s_i and the slice
// popcounts, without visiting a slice (exactStats).

// vecCode is a vector segment encoded for the exact kernel: element k's
// aligned integer under Code is ±m[k]·2^sh[k], negative when the mask
// sgn[k] is all ones (zero otherwise), and pop[j] counts the elements
// whose Width-bit two's complement has bit j set — the slice popcounts
// of VectorSlices, without the bitmaps.
type vecCode struct {
	Code  BlockCode
	Width int // two's-complement width, Code.Width + 1 (0 for all-zero)
	m     []uint64
	sh    []int32
	sgn   []uint64
	maxSh int // the largest sh[k] with m[k] ≠ 0
	pop   []int32
	// runs[j] counts the negative elements whose run of leading two's-
	// complement ones starts at bit j.
	runs []int32
}

// encode aligns x under its segment code and counts the slice
// popcounts. Element storage is sized by the caller; the per-slice
// arrays grow to the widest segment seen.
func (v *vecCode) encode(x []float64, maxPad int, q Quant) error {
	code, err := NewBlockCodeQuant(x, maxPad, q)
	if err != nil {
		return fmt.Errorf("vector segment: %w", err)
	}
	v.Code, v.Width, v.maxSh = code, 0, 0
	if code.Empty {
		return nil
	}
	W := code.Width + 1
	v.Width = W
	v.pop = resize(v.pop, W)
	v.runs = resize(v.runs, W)
	clear(v.pop)
	clear(v.runs)
	for k, xk := range x {
		m, sh, neg := code.split(xk)
		v.m[k], v.sh[k], v.sgn[k] = m, int32(sh), 0
		if neg {
			v.sgn[k] = ^uint64(0)
		}
		if m == 0 {
			continue
		}
		v.maxSh = max(v.maxSh, sh)
		// −m·2^sh in two's complement: bits [sh, sh+53) hold −m mod
		// 2^53 and every bit from sh+53 up is one.
		w := m
		if neg {
			w = -m & (1<<MantissaBits - 1)
			if r := sh + MantissaBits; r < W {
				v.runs[r]++
			}
		}
		for ; w != 0; w &= w - 1 {
			j := sh + bits.TrailingZeros64(w)
			if j >= W {
				break
			}
			v.pop[j]++
		}
	}
	var ones int32
	for j := range v.pop {
		ones += v.runs[j]
		v.pop[j] += ones
	}
	return nil
}

// shifted returns ⌊X_k/2^j⌋ as ±m·2^sh with sign mask sgn (m = 0 when
// it is zero): the significand is truncated, and a negative quotient
// with a remainder steps down. A shift of 64 or more leaves 0, and the
// remainder mask then covers all of m. It has no data-dependent branch.
func (v *vecCode) shifted(k int32, j int) (m uint64, sh int, sgn uint64) {
	m, sh, sgn = v.m[k], int(v.sh[k])-j, v.sgn[k]
	d := uint(max(-sh, 0))
	rem := m & (1<<d - 1)
	return m>>d + sgn&((rem|-rem)>>63), max(sh, 0), sgn
}

// exactScratch is the exact kernel's part of the arena.
type exactScratch struct {
	xv vecCode
	// narrow selects the four-word two's-complement accumulator
	// (rowSum4) for this call; otherwise pos and neg accumulate the
	// magnitudes of a row pass's positive and negative terms, words of
	// them in use.
	narrow   bool
	pos, neg []big.Word
	words    int
	// sum is the current row's exact dot product, part its running sum
	// after a probed slice.
	sum, part Fix
	// nz[j] counts the nonzero slices at or above slice j; cnt holds
	// those counts split by headstart cap index (exactStats).
	nz  []int32
	cnt []uint32
}

// init sizes the scratch for n inputs and dot products of up to
// fixWords words.
func (e *exactScratch) init(n, fixWords int) {
	e.xv.m = make([]uint64, n)
	e.xv.sh = make([]int32, n)
	e.xv.sgn = make([]uint64, n)
	e.pos = make([]big.Word, fixWords+4)
	e.neg = make([]big.Word, fixWords+4)
	e.sum = newFixWords(fixWords)
	e.part = newFixWords(fixWords)
}

// resize returns s with length n, reallocating only to grow.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// mulVecExact is the exact kernel: per row, one exact dot product for
// the output and a search for the settle slice; then the statistics.
func (c *Cluster) mulVecExact(x []float64) ([]float64, error) {
	b := c.block
	if len(x) != b.N {
		return nil, fmt.Errorf("core: vector length %d != block cols %d", len(x), b.N)
	}
	ex := &c.arena.exact
	xv := &ex.xv
	if err := xv.encode(x, c.cfg.VectorMaxPad, c.cfg.VectorQuant); err != nil {
		return nil, err
	}
	c.stats.Ops++
	c.resetPerCall()

	y := c.arena.y
	clear(y)
	if xv.Code.Empty || b.Code.Empty {
		return y, nil
	}
	W := xv.Width
	scale := CombinedScale(b.Code, xv.Code)
	// A row pass's terms are below 2^(b.Code.Width + xv.Code.Width)
	// and number at most N, so their sum is below 2^sumBits. When the
	// signed sum fits four words and no term is shifted past the first,
	// it is kept in registers; otherwise addTerm writes a four-word
	// window that may reach three words past the sum's width.
	sumBits := b.Code.Width + xv.Code.Width + bits.Len(uint(b.N))
	ex.narrow = xv.maxSh < 64 && sumBits < 256
	ex.words = sumBits/64 + 4
	used := c.stats.ColumnSlicesUsed
	jmin := W
	for i := range y {
		c.rowSum(&ex.sum, i, 0)
		y[i] = ex.sum.Round(scale, c.cfg.Rounding)
		s := 0
		if !c.cfg.DisableEarlyTermination {
			s = c.settleSlice(i, W, scale)
		}
		used[i] = W - s
		jmin = min(jmin, s)
	}
	c.exactStats(W, jmin)
	return y, nil
}

// rowSum sets dst to Σ_k F_ik·⌊X_k/2^j⌋ over row i's present cells:
// R_j/2^j, and the exact dot product at j = 0.
func (c *Cluster) rowSum(dst *Fix, i, j int) {
	if c.arena.exact.narrow {
		dst.setInt256(c.rowSum4(i, j))
		return
	}
	c.rowSumWide(dst, i, j)
}

// int256 is a four-word two's-complement integer, least significant
// word first: the exact kernel's narrow row sums.
type int256 [4]uint64

// rowSum4 is rowSum in a narrow call, where the sum fits four words
// and every shift is below 64. The loop has no data-dependent branch:
// a zero term adds zero, Go defines a shift by 64 as 0, and a negative
// term is added as its two's complement under an all-ones mask.
func (c *Cluster) rowSum4(i, j int) int256 {
	b := c.block
	xv := &c.arena.exact.xv
	p0, p1 := b.RowPtr[i], b.RowPtr[i+1]
	fs := b.F[p0:p1]
	var a0, a1, a2, a3 uint64
	for p, k := range b.Cols[p0:p1] {
		m, sh, neg := xv.shifted(k, j)
		f := &fs[p]
		if f.Neg {
			neg = ^neg
		}
		h0, t0 := bits.Mul64(f.Lo, m)
		h1, l1 := bits.Mul64(f.Hi, m)
		t1, cy := bits.Add64(h0, l1, 0)
		t2 := h1 + cy
		o := uint(sh)
		t3 := t2 >> (64 - o)
		t2 = t2<<o | t1>>(64-o)
		t1 = t1<<o | t0>>(64-o)
		t0 <<= o
		t0, cy = bits.Add64(t0^neg, neg&1, 0)
		t1, cy = bits.Add64(t1^neg, 0, cy)
		t2, cy = bits.Add64(t2^neg, 0, cy)
		t3 = t3 ^ neg + cy
		a0, cy = bits.Add64(a0, t0, 0)
		a1, cy = bits.Add64(a1, t1, cy)
		a2, cy = bits.Add64(a2, t2, cy)
		a3 += t3 + cy
	}
	return int256{a0, a1, a2, a3}
}

// rowSumWide is rowSum in calls that are not narrow: the terms'
// magnitudes are added at their word offsets into separate positive and
// negative accumulators.
func (c *Cluster) rowSumWide(dst *Fix, i, j int) {
	b := c.block
	ex := &c.arena.exact
	p0, p1 := b.RowPtr[i], b.RowPtr[i+1]
	fs := b.F[p0:p1]
	pos, neg := ex.pos[:ex.words], ex.neg[:ex.words]
	clear(pos)
	clear(neg)
	for p, k := range b.Cols[p0:p1] {
		m, sh, sgn := ex.xv.shifted(k, j)
		if m == 0 {
			continue
		}
		f := &fs[p]
		ws := pos
		if f.Neg != (sgn != 0) {
			ws = neg
		}
		addTerm(ws, f.Lo, f.Hi, m, uint(sh))
	}
	dst.SetWords(pos)
	n := len(neg)
	for n > 0 && neg[n-1] == 0 {
		n--
	}
	dst.addSigned(neg[:n], true)
}

// addTerm adds (hi·2^64 + lo)·m·2^sh into the little-endian magnitude
// ws. The product of a coefficient below 2^117 and a significand below
// 2^64 fits three words, and its shift a fourth.
func addTerm(ws []big.Word, lo, hi, m uint64, sh uint) {
	h0, p0 := bits.Mul64(lo, m)
	h1, l1 := bits.Mul64(hi, m)
	p1, cy := bits.Add64(h0, l1, 0)
	p2 := h1 + cy
	var p3 uint64
	if o := sh % 64; o != 0 {
		p3 = p2 >> (64 - o)
		p2 = p2<<o | p1>>(64-o)
		p1 = p1<<o | p0>>(64-o)
		p0 <<= o
	}
	ws = ws[sh/64:]
	var s uint64
	s, cy = bits.Add64(uint64(ws[0]), p0, 0)
	ws[0] = big.Word(s)
	s, cy = bits.Add64(uint64(ws[1]), p1, cy)
	ws[1] = big.Word(s)
	s, cy = bits.Add64(uint64(ws[2]), p2, cy)
	ws[2] = big.Word(s)
	s, cy = bits.Add64(uint64(ws[3]), p3, cy)
	ws[3] = big.Word(s)
	for k := 4; cy != 0; k++ {
		ws[k]++
		if ws[k] != 0 {
			cy = 0
		}
	}
}

// settleSlice returns row i's settle slice: the largest j in [1, W−1]
// at which rowSettled passes on R_j, or 0. The arena's sum holds the
// row's exact dot product R_0. Since the test is monotone in j, the
// search steps away from a first probe by 1, 2, 4, … slices until the
// outcome flips, then bisects. The first probe sits three slices below
// the largest slice the pre-check (settleImpossible) lets through,
// where most rows settle.
func (c *Cluster) settleSlice(i, W, scale int) int {
	b := c.block
	ex := &c.arena.exact
	// For j at or below every shift the row multiplies, nothing is
	// truncated and R_j = R_0.
	minSh := math.MaxInt
	for _, k := range b.Cols[b.RowPtr[i]:b.RowPtr[i+1]] {
		if ex.xv.m[k] != 0 {
			minSh = min(minSh, int(ex.xv.sh[k]))
		}
	}
	j := min(max(ex.sum.BitLen()-MantissaBits-1-c.rowBits[i], 1), W-1)
	if j < 1 {
		return 0
	}
	hold, fail := 0, W // rowSettled passes at hold (0: none yet) and fails at fail
	up := c.settlesAt(i, j, minSh, scale)
	if up {
		hold = j
	} else {
		fail = j
	}
	for off := 1; ; off *= 2 {
		n := j - off
		if up {
			n = j + off
		}
		if n <= hold || n >= fail {
			break
		}
		if c.settlesAt(i, n, minSh, scale) {
			hold = n
			if !up {
				break
			}
		} else {
			fail = n
			if up {
				break
			}
		}
	}
	for fail-hold > 1 {
		mid := (hold + fail) / 2
		if c.settlesAt(i, mid, minSh, scale) {
			hold = mid
		} else {
			fail = mid
		}
	}
	return hold
}

// settlesAt runs rowSettled on row i's running sum after slice j.
func (c *Cluster) settlesAt(i, j, minSh, scale int) bool {
	ex := &c.arena.exact
	run := &ex.sum
	if j > minSh {
		run = &ex.part
		c.rowSum(run, i, j)
		run.Lsh(uint(j))
	}
	_, ok := c.rowSettled(run, i, j, scale)
	return ok
}

// exactStats adds the call's statistics, as the slice walk counts them,
// from the settle slices s_i = W − ColumnSlicesUsed[i], their minimum
// jmin, and the slice popcounts. The walk applies slices W−1 down to
// jmin. Row i converts, once per plane, at every slice j ≥ s_i with a
// nonzero popcount — n(s_i) slices, where n(s) counts the nonzero slices
// at or above s — and skips the nonzero slices in [jmin, s_i). Each
// conversion passes one AN check, and spends the SAR bits convBits
// tabulates for its row and the slice's headstart cap.
func (c *Cluster) exactStats(W, jmin int) {
	ex := &c.arena.exact
	pop := ex.xv.pop[:W]
	nz := resize(ex.nz, W+1)
	ex.nz = nz
	nz[W] = 0
	for j := W - 1; j >= 0; j-- {
		nz[j] = nz[j+1]
		if pop[j] > 0 {
			nz[j]++
		}
	}
	used := c.stats.ColumnSlicesUsed
	var conv uint64
	for _, u := range used {
		conv += uint64(nz[W-u])
	}
	planes := uint64(c.nPlanes)
	st := &c.stats
	st.VectorSlicesTotal += W
	st.VectorSlicesApplied += W - jmin
	st.CrossbarActivations += planes * uint64(W-jmin)
	st.MinSettleSlice = jmin
	st.Conversions += planes * conv
	st.ConversionsSkipped += planes * (uint64(len(used))*uint64(nz[jmin]) - conv)
	if !c.cfg.DisableAN {
		st.AN.OK += conv
	}
	if c.convBits == nil {
		st.ConversionBits += planes * uint64(c.adc.Resolution) * conv
		return
	}
	// cnt[(j−jmin)·C + k]: nonzero slices at or above j whose cap
	// index Len(pop·lmax) is k.
	C := c.maxCap + 1
	lmax := 1<<c.planeBits - 1
	cnt := resize(ex.cnt, (W-jmin+1)*C)
	ex.cnt = cnt
	clear(cnt[(W-jmin)*C:])
	for j := W - 1; j >= jmin; j-- {
		r := cnt[(j-jmin)*C : (j-jmin+1)*C]
		copy(r, cnt[(j-jmin+1)*C:(j-jmin+2)*C])
		if pop[j] > 0 {
			r[bits.Len(uint(int(pop[j])*lmax))]++
		}
	}
	var total uint64
	for i, u := range used {
		r := cnt[(W-u-jmin)*C:][:C]
		for k, tab := range c.convBits[i*C : (i+1)*C] {
			total += uint64(tab) * uint64(r[k])
		}
	}
	st.ConversionBits += total
}
