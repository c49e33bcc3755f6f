package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"memsci/internal/ancode"
)

// This file implements the packed MVM kernel: the slice-major traversal
// of the generic loop in cluster_fix.go (vector slices outer, most
// significant first; output rows inner; settle checks after every
// slice) with each (row, slice) reduction Σ_t count_t·2^(t·planeBits)
// produced from one of two mirrors built once at NewCluster and shared
// by forks, like the planes themselves:
//
//   - codewords, for clusters without error injection. A crossbar's
//     output for one applied slice is then exact, so after CIC decoding
//     row i's reduction is Σ U_ik over the inputs k the slice selects,
//     where U = A·(F + bias) is the cell's codeword. Every absent cell
//     holds the same codeword U0 = A·bias, so the mirror keeps only the
//     present cells' deltas U_ik − U0 = A·F_ik, and sumCodewords forms
//     popX·U0 + Σ (U_ik − U0) for all M rows at once, visiting each
//     present cell of the slice's set inputs once — instead of
//     recounting the sum from nPlanes bit planes per row.
//   - lanes, under injection: every plane's count must pass through the
//     device-error model in the reference draw order, so each row's
//     per-plane counts are popcounted from an interleaved bit-plane
//     mirror (countLanes, planeCounts) and shift-added.
//
// Either reduction then runs through one- or two-word AN-divide and
// de-bias arithmetic when the cluster's reduction bound allows, and the
// generic multi-word decode otherwise.
//
// The kernel is bit-identical to the generic loop (and hence to the
// big.Int reference of cluster_ref.go) in outputs and statistics; the
// golden equivalence suite and the kernel property tests enforce this
// across rounding modes, AN, early termination, CIC, multi-bit cells
// and error injection.

// ClusterConfig.Kernel force-knob values.
const (
	// KernelAuto (the empty string) selects the packed kernel.
	KernelAuto = ""
	// KernelGeneric forces the scalar per-plane loop of cluster_fix.go.
	KernelGeneric = "generic"
)

// selectKernel resolves ClusterConfig.Kernel into the packed or the
// generic kernel and the decode-width specialization for this cluster's
// static shape, and builds the packed mirror. Called at the end of
// NewCluster; forks inherit the selection.
func (c *Cluster) selectKernel() error {
	// Decode-width specialization: the per-(row, slice) reduction is
	// Σ_t count_t·2^(t·planeBits) with count_t ≤ N·(2^B − 1) — the
	// device model clamps noisy readouts to the same physical rail — so
	// the exact bound is N·(2^B − 1)·(2^(nPlanes·B) − 1)/(2^B − 1).
	// With multi-bit cells this can exceed 2^sumBits, so the gate uses
	// the geometric bound, not sumBits. The narrow paths build words
	// with 64-bit two-word arithmetic and therefore also require 64-bit
	// big.Words.
	c.decWords = 0
	if wordBits == 64 {
		lmax := int64(1)<<c.planeBits - 1
		maxRed := new(big.Int).Lsh(big.NewInt(1), uint(c.nPlanes*c.planeBits))
		maxRed.Sub(maxRed, big.NewInt(1))
		maxRed.Div(maxRed, big.NewInt(lmax)) // exact: B divides nPlanes·B
		maxRed.Mul(maxRed, big.NewInt(int64(c.block.N)*lmax))
		switch {
		case maxRed.BitLen() <= 64:
			c.decWords = 1
		case maxRed.BitLen() <= 128:
			c.decWords = 2
		}
	}
	switch c.cfg.Kernel {
	case KernelGeneric:
	case KernelAuto:
		if !c.cfg.ReferenceMVM {
			c.buildPacked()
		}
	default:
		return fmt.Errorf("core: unknown kernel %q (want %q or auto)", c.cfg.Kernel, KernelGeneric)
	}
	return nil
}

// KernelName reports the MVM kernel variant selected for this cluster
// with its decode width (e.g. "codeword/128", "lanes/64", "generic",
// "reference") — diagnostics for benchmarks and equivalence tests.
func (c *Cluster) KernelName() string {
	switch {
	case c.cfg.ReferenceMVM:
		return "reference"
	case c.packed == nil:
		return KernelGeneric
	}
	base := "lanes"
	if c.packed.cwPtr != nil {
		base = "codeword"
	}
	switch c.decWords {
	case 1:
		return base + "/64"
	case 2:
		return base + "/128"
	}
	return base + "/multi"
}

// packedPlanes is the packed kernel's mirror of a cluster's programmed
// state. It is immutable after NewCluster: CIC inversion and static
// faults are applied before it is built, and refresh re-programs whole
// clusters through NewCluster. Forks share it the way they share
// planes.
type packedPlanes struct {
	nW    int // words per input bitmap, (N+63)/64
	lanes int // nPlanes·planeBits level-bit lanes

	// The codeword mirror of a cluster without error injection, in
	// compressed sparse columns: input k's present cells are the rows
	// cwRow[p], p in [cwPtr[k], cwPtr[k+1]), with codeword deltas
	// U_ik − U0 = A·F_ik ≡ cwLo[p] + 2^64·cwHi[p] (mod 2^128). cwHi is
	// nil on the one-word decode tier, where sums run mod 2^64.
	cwPtr      []int
	cwRow      []int32
	cwLo, cwHi []uint64

	// words, built only under error injection, is the lane mirror: for
	// output row i and input word w, the level-bit words of every plane
	// sit consecutively, so countLanes ANDs one input word against all
	// planes in one contiguous pass:
	//
	//	words[(i·nW + w)·lanes + t·planeBits + b] = bit b of plane t,
	//	                                            output row i, input word w
	words []uint64

	// orWords, built only under error injection with multi-bit cells,
	// holds the OR of each plane's level bits per (row, word, plane) —
	// the active-cell mask behind the error model's onCells operand:
	// orWords[(i·nW + w)·nPlanes + t].
	orWords []uint64

	// inverted caches the per-(row, plane) CIC flags of the lane path:
	// inverted[i·nPlanes+t].
	inverted []bool

	// bitsTab, present when ADC headstart is on, tabulates the SAR bit
	// decisions of one (row, slice) pair as a function of the applied
	// popcount bound's bit length: bitsTab[i·(maxCap+1) + Len(popX·lmax)]
	// = Σ_t clamp(min(Len(weight_t), Len(popX·lmax)), 1, Resolution).
	// This is exact because Len is monotone, so Len(min(w, cap)) =
	// min(Len(w), Len(cap)).
	bitsTab []uint32
	maxCap  int
}

// buildPacked constructs the packed mirror from the block and the
// final (post-CIC, post-fault) planes: codeword deltas without error
// injection, the lane mirror with it, and the headstart table.
func (c *Cluster) buildPacked() {
	b := c.block
	B, nP := c.planeBits, c.nPlanes
	pk := &packedPlanes{
		nW:    (b.N + 63) / 64,
		lanes: nP * B,
	}
	if c.arr == nil {
		nnz := 0
		for _, f := range b.F {
			if f.Sign() != 0 {
				nnz++
			}
		}
		pk.cwPtr = make([]int, 1, b.N+1)
		pk.cwRow = make([]int32, 0, nnz)
		pk.cwLo = make([]uint64, 0, nnz)
		if c.decWords != 1 {
			pk.cwHi = make([]uint64, 0, nnz)
		}
		for k := 0; k < b.N; k++ {
			for i := 0; i < b.M; i++ {
				f := b.F[i*b.N+k]
				if f.Sign() == 0 {
					continue
				}
				// A·|F| < 2^126 as a two-word product, negated in two's
				// complement for negative F.
				var mLo, mHi uint64
				for w, v := range f.Bits() {
					if s := uint(w * wordBits); s < 64 {
						mLo |= uint64(v) << s
					} else {
						mHi |= uint64(v) << (s - 64)
					}
				}
				h, lo := bits.Mul64(mLo, ancode.A)
				hi := mHi*ancode.A + h
				if f.Sign() < 0 {
					var brw uint64
					lo, brw = bits.Sub64(0, lo, 0)
					hi, _ = bits.Sub64(0, hi, brw)
				}
				pk.cwRow = append(pk.cwRow, int32(i))
				pk.cwLo = append(pk.cwLo, lo)
				if pk.cwHi != nil {
					pk.cwHi = append(pk.cwHi, hi)
				}
			}
			pk.cwPtr = append(pk.cwPtr, len(pk.cwRow))
		}
	} else {
		pk.words = make([]uint64, b.M*pk.nW*pk.lanes)
		pk.inverted = make([]bool, b.M*nP)
		for i := 0; i < b.M; i++ {
			for t := 0; t < nP; t++ {
				pk.inverted[i*nP+t] = c.planes[t].Inverted(i)
				for lb := 0; lb < B; lb++ {
					cw := c.planes[t].ColumnWords(lb, i)
					lane := t*B + lb
					for w := 0; w < pk.nW; w++ {
						pk.words[(i*pk.nW+w)*pk.lanes+lane] = cw[w]
					}
				}
			}
		}
	}
	if c.arr != nil && B > 1 {
		pk.orWords = make([]uint64, b.M*pk.nW*nP)
		for i := 0; i < b.M; i++ {
			for t := 0; t < nP; t++ {
				for w := 0; w < pk.nW; w++ {
					var or uint64
					for lb := 0; lb < B; lb++ {
						or |= c.planes[t].ColumnWords(lb, i)[w]
					}
					pk.orWords[(i*pk.nW+w)*nP+t] = or
				}
			}
		}
	}
	if c.adc.Headstart {
		lmax := 1<<B - 1
		pk.maxCap = bits.Len(uint(b.N * lmax))
		pk.bitsTab = make([]uint32, b.M*(pk.maxCap+1))
		res := c.adc.Resolution
		for i := 0; i < b.M; i++ {
			row := pk.bitsTab[i*(pk.maxCap+1) : (i+1)*(pk.maxCap+1)]
			for t := 0; t < nP; t++ {
				lw := bits.Len(uint(c.planes[t].StoredOnes(i)))
				for cl := 0; cl <= pk.maxCap; cl++ {
					need := lw
					if cl < need {
						need = cl
					}
					if need > res {
						need = res
					}
					if need < 1 {
						need = 1
					}
					row[cl] += uint32(need)
				}
			}
		}
	}
	c.packed = pk
}

// sumCodewords sets the arena's reduction words sumLo, sumHi and sumTop
// of every output row i to Σ U_ik over the inputs k set in the slice
// words xw (popX of them) — each row's exact, CIC-decoded reduction for
// the slice. Each row starts from popX absent-cell codewords
// popX·A·2^Width, and the deltas of the present cells in the set
// inputs' columns are added in two's complement modulo 2^(64·words).
// The true sum is non-negative and below the decode tier's bound, so
// the wrapped result is exact; only the words the tier reads are
// maintained.
func (c *Cluster) sumCodewords(popX int, xw []uint64) {
	pk, ar := c.packed, &c.arena
	lo, hi, top := ar.sumLo, ar.sumHi, ar.sumTop
	// Go defines a shift by 64 or more bits as zero, so these three
	// words hold m·2^s for every Width below 128.
	m, s := uint64(popX)*ancode.A, uint(c.block.Code.Width)
	lo0, hi0, top0 := m<<s, m<<(s-64)|m>>(64-s), m>>(128-s)
	for i := range lo {
		lo[i], hi[i], top[i] = lo0, hi0, top0
	}
	for w, xv := range xw {
		for ; xv != 0; xv &= xv - 1 {
			k := w*64 + bits.TrailingZeros64(xv)
			p0, p1 := pk.cwPtr[k], pk.cwPtr[k+1]
			rows := pk.cwRow[p0:p1]
			dl := pk.cwLo[p0:p1]
			dl = dl[:len(rows)]
			switch c.decWords {
			case 1:
				for p, i := range rows {
					lo[i] += dl[p]
				}
			case 2:
				dh := pk.cwHi[p0:p1]
				dh = dh[:len(rows)]
				for p, i := range rows {
					var cy uint64
					lo[i], cy = bits.Add64(lo[i], dl[p], 0)
					hi[i] += dh[p] + cy
				}
			default:
				dh := pk.cwHi[p0:p1]
				dh = dh[:len(rows)]
				for p, i := range rows {
					var cy uint64
					lo[i], cy = bits.Add64(lo[i], dl[p], 0)
					hi[i], cy = bits.Add64(hi[i], dh[p], cy)
					top[i] += uint64(int64(dh[p])>>63) + cy // sign extension
				}
			}
		}
	}
}

// mulVecPacked is the packed kernel: the exact traversal order of
// mulVecFix — vector slices outer (most significant first), output rows
// inner, settle checks after every slice — with each row's reduction
// taken from the slice's codeword column sums or, under error
// injection, from one fused pass over the row's lanes, and the decode
// specialized to the cluster's reduction width. Under injection it
// consumes the stochastic draw stream in the reference order.
func (c *Cluster) mulVecPacked(x []float64) ([]float64, error) {
	b := c.block
	if len(x) != b.N {
		return nil, fmt.Errorf("core: vector length %d != block cols %d", len(x), b.N)
	}
	ar := &c.arena
	if err := SliceVectorQuantInto(&ar.vs, x, c.cfg.VectorMaxPad, c.cfg.VectorQuant); err != nil {
		return nil, err
	}
	vs := &ar.vs
	c.stats.Ops++
	c.resetPerCall()

	y := ar.y
	for i := range y {
		y[i] = 0
	}
	if vs.Code.Empty || b.Code.Empty {
		return y, nil
	}
	scale := CombinedScale(b.Code, vs.Code)
	c.stats.VectorSlicesTotal += vs.Width
	c.stats.MinSettleSlice = vs.Width

	run := ar.run
	for i := range run {
		run[i].SetZero()
	}
	settled := ar.settled
	for i := range settled {
		settled[i] = false
	}
	unsettled := b.M

	codewords := c.packed.cwPtr != nil
	lmax := 1<<c.planeBits - 1
	applied := 0
	for j := vs.Width - 1; j >= 0 && unsettled > 0; j-- {
		popX := vs.Pop[j]
		applied++
		c.stats.VectorSlicesApplied++
		c.stats.CrossbarActivations += uint64(c.nPlanes)
		c.stats.MinSettleSlice = j

		if popX == 0 {
			c.checkSettleFix(&unsettled, y, j, scale, applied)
			continue
		}
		xw := vs.Slices[j].Words()
		negWeight := vs.Weight(j)
		capIdx := 0
		if c.adc.Headstart {
			capIdx = bits.Len(uint(popX * lmax))
		}
		if c.decWords == 0 {
			ar.biased.SetUint(uint64(popX))
			ar.biased.Lsh(uint(b.Code.Width))
		}
		if codewords {
			c.sumCodewords(popX, xw)
		}
		for i := 0; i < b.M; i++ {
			if settled[i] {
				c.stats.ConversionsSkipped += uint64(c.nPlanes)
				continue
			}
			c.stats.Conversions += uint64(c.nPlanes)
			c.stats.ConversionBits += c.rowConvBits(i, capIdx)
			var hi, lo uint64
			if codewords {
				hi, lo = ar.sumHi[i], ar.sumLo[i]
				if c.decWords == 0 {
					clear(c.redWords)
					c.redWords[0], c.redWords[1], c.redWords[2] = big.Word(lo), big.Word(hi), big.Word(ar.sumTop[i])
				}
			} else {
				c.countLanes(i, xw)
				c.planeCounts(i, popX, xw)
				switch c.decWords {
				case 1:
					lo = c.reduce64()
				case 2:
					hi, lo = c.reduce128()
				default:
					c.reduceWords()
				}
			}
			switch c.decWords {
			case 1:
				c.apply64(i, j, popX, negWeight, lo)
			case 2:
				c.apply128(i, j, popX, negWeight, hi, lo)
			default:
				c.decodeAccumulate(i, j, popX, negWeight)
			}
		}
		c.checkSettleFix(&unsettled, y, j, scale, applied)
	}
	for i := 0; i < b.M; i++ {
		if !settled[i] {
			y[i] = run[i].Round(scale, c.cfg.Rounding)
			c.stats.ColumnSlicesUsed[i] = vs.Width
		}
	}
	return y, nil
}

// rowConvBits returns the total SAR bit decisions for one (row, slice)
// pair; capIdx is Len(popX·lmax), ignored when headstart is off.
func (c *Cluster) rowConvBits(i, capIdx int) uint64 {
	pk := c.packed
	if pk.bitsTab == nil {
		return uint64(c.nPlanes * c.adc.Resolution)
	}
	return uint64(pk.bitsTab[i*(pk.maxCap+1)+capIdx])
}

// countLanes accumulates into the arena's lane-count buffer the
// AND-popcounts of every level-bit lane of output row i against the
// applied slice words xw — one pass over the interleaved mirror instead
// of nPlanes·bitsPerCell separate bitmap walks. Padding bits are clear
// on both operands (planes and slices maintain that invariant), so no
// tail masking is needed.
func (c *Cluster) countLanes(i int, xw []uint64) {
	pk := c.packed
	cnts := c.arena.cnts
	base := i * pk.nW * pk.lanes
	wrote := false
	for w, xv := range xw {
		if xv == 0 {
			continue
		}
		seg := pk.words[base+w*pk.lanes : base+(w+1)*pk.lanes]
		if !wrote {
			wrote = true
			for l, pw := range seg {
				cnts[l] = bits.OnesCount64(xv & pw)
			}
		} else {
			for l, pw := range seg {
				cnts[l] += bits.OnesCount64(xv & pw)
			}
		}
	}
	if !wrote {
		for l := range cnts {
			cnts[l] = 0
		}
	}
}

// countOrLanes fills the arena's per-plane active-cell counts for output
// row i (multi-bit cells under error injection only).
func (c *Cluster) countOrLanes(i int, xw []uint64) {
	pk := c.packed
	nP := c.nPlanes
	orCnts := c.arena.orCnts
	base := i * pk.nW * nP
	wrote := false
	for w, xv := range xw {
		if xv == 0 {
			continue
		}
		seg := pk.orWords[base+w*nP : base+(w+1)*nP]
		if !wrote {
			wrote = true
			for t, ow := range seg {
				orCnts[t] = bits.OnesCount64(xv & ow)
			}
		} else {
			for t, ow := range seg {
				orCnts[t] += bits.OnesCount64(xv & ow)
			}
		}
	}
	if !wrote {
		for t := range orCnts {
			orCnts[t] = 0
		}
	}
}

// planeCounts converts the lane counts of row i into final per-plane
// CIC-decoded counts, optionally routing each plane's stored count
// through the device-error model in ascending plane order — the exact
// draw order of the reference per-plane Column walk.
func (c *Cluster) planeCounts(i, popX int, xw []uint64) {
	ar := &c.arena
	pk := c.packed
	B, nP := c.planeBits, c.nPlanes
	inv := pk.inverted[i*nP : (i+1)*nP]
	cnts, pcnts := ar.cnts, ar.pcnts
	if c.arr != nil && B > 1 {
		c.countOrLanes(i, xw)
	}
	for t := 0; t < nP; t++ {
		cv := cnts[t*B]
		for lb := 1; lb < B; lb++ {
			cv += cnts[t*B+lb] << lb
		}
		if c.arr != nil {
			on := cv
			if B > 1 {
				on = ar.orCnts[t]
			}
			cv = c.arr.PerturbCountVar(cv, on, popX-on, c.planes[t].ColumnGain(i))
		}
		if inv[t] {
			// CIC decoding: true = popX − stored-form count; a noisy
			// observation cannot exceed the CIC bound.
			cv = popX - cv
			if cv < 0 {
				cv = 0
			}
		}
		pcnts[t] = cv
	}
}

// reduce64 folds the per-plane counts into the single-word reduction
// Σ_t count_t·2^(t·planeBits); the decWords=1 gate guarantees no
// overflow.
func (c *Cluster) reduce64() uint64 {
	var lo uint64
	B := c.planeBits
	for t, cv := range c.arena.pcnts {
		lo += uint64(cv) << uint(t*B)
	}
	return lo
}

// reduce128 is reduce64 in a 128-bit (hi, lo) pair for clusters whose
// reduction bound needs up to two words.
func (c *Cluster) reduce128() (hi, lo uint64) {
	B := c.planeBits
	for t, cv := range c.arena.pcnts {
		if cv == 0 {
			continue
		}
		s := uint(t * B)
		if s < 64 {
			var carry uint64
			lo, carry = bits.Add64(lo, uint64(cv)<<s, 0)
			var hiAdd uint64
			if s > 0 {
				hiAdd = uint64(cv) >> (64 - s)
			}
			hi += hiAdd + carry
		} else {
			hi += uint64(cv) << (s - 64)
		}
	}
	return hi, lo
}

// reduceWords is the multi-word fallback: per-plane counts shift-added
// into the cluster's raw reduction accumulator, as the generic kernel
// does plane by plane.
func (c *Cluster) reduceWords() {
	for w := range c.redWords {
		c.redWords[w] = 0
	}
	B := c.planeBits
	for t, cv := range c.arena.pcnts {
		addShifted(c.redWords, uint(t*B), uint64(cv))
	}
}

// apply64 decodes one single-word reduction and accumulates its signed
// de-biased contribution into row i's running sum: the specialized form
// of the generic AN-divide / de-bias / shift-add sequence.
func (c *Cluster) apply64(i, j, popX int, negWeight bool, red uint64) {
	ar := &c.arena
	q, rem := red/ancode.A, red%ancode.A
	if rem != 0 && !c.cfg.DisableAN {
		c.applySlow(i, j, popX, negWeight, 0, red)
		return
	}
	if !c.cfg.DisableAN {
		c.stats.AN.Add(ancode.OK)
	}
	// De-bias: contrib = Q − popX·2^Width. Width < 64 here: the biased
	// term is below the ≤ 64-bit reduction bound.
	biased := uint64(popX) << uint(c.block.Code.Width)
	var mag uint64
	neg := false
	if q >= biased {
		mag = q - biased
	} else {
		neg = true
		mag = biased - q
	}
	if negWeight {
		neg = !neg
	}
	ar.contrib.setShifted128(0, mag, uint(j), neg)
	ar.run[i].Add(&ar.contrib)
}

// apply128 is apply64 on a two-word reduction: the AN divide becomes an
// exact long division by A in two Div64 steps, and the de-bias a 128-bit
// subtraction with sign tracking.
func (c *Cluster) apply128(i, j, popX int, negWeight bool, hi, lo uint64) {
	ar := &c.arena
	qh, r := bits.Div64(0, hi, ancode.A)
	ql, rem := bits.Div64(r, lo, ancode.A)
	if rem != 0 && !c.cfg.DisableAN {
		c.applySlow(i, j, popX, negWeight, hi, lo)
		return
	}
	if !c.cfg.DisableAN {
		c.stats.AN.Add(ancode.OK)
	}
	var bh, bl uint64
	wd := uint(c.block.Code.Width)
	if wd < 64 {
		bl = uint64(popX) << wd
		bh = uint64(popX) >> (64 - wd)
	} else {
		bh = uint64(popX) << (wd - 64)
	}
	var ch, cl, brw uint64
	neg := false
	if qh > bh || (qh == bh && ql >= bl) {
		cl, brw = bits.Sub64(ql, bl, 0)
		ch, _ = bits.Sub64(qh, bh, brw)
	} else {
		neg = true
		cl, brw = bits.Sub64(bl, ql, 0)
		ch, _ = bits.Sub64(bh, qh, brw)
	}
	if negWeight {
		neg = !neg
	}
	ar.contrib.setShifted128(ch, cl, uint(j), neg)
	ar.run[i].Add(&ar.contrib)
}

// applySlow routes a nonzero AN syndrome (reachable only under error
// injection) through the generic correction decode: the raw reduction is
// re-materialized into redWords and handed to decodeAccumulate, which
// runs the table corrector exactly as the generic kernel would.
func (c *Cluster) applySlow(i, j, popX int, negWeight bool, hi, lo uint64) {
	ar := &c.arena
	for w := range c.redWords {
		c.redWords[w] = 0
	}
	c.redWords[0] = big.Word(lo)
	c.redWords[1] = big.Word(hi)
	ar.biased.SetUint(uint64(popX))
	ar.biased.Lsh(uint(c.block.Code.Width))
	c.decodeAccumulate(i, j, popX, negWeight)
}
