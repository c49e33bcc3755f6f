package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"memsci/internal/ancode"
)

// This file implements the lane kernel, the MVM of clusters with error
// injection. It walks the slices in the order of the big.Int reference
// of cluster_ref.go (vector slices outer, most significant first;
// output rows inner; settle checks after every slice), with each
// (row, slice) reduction Σ_t count_t·2^(t·planeBits) taken from a
// mirror built once at NewCluster and shared by forks. Every plane's
// count must pass through the device-error model in the reference draw
// order, so each row's per-plane counts are popcounted from an
// interleaved bit-plane mirror (countLanes, planeCounts) and
// shift-added. The reduction then runs through one- or two-word
// AN-divide and de-bias arithmetic when the cluster's reduction bound
// allows, and the multi-word decode otherwise.
//
// The kernel is bit-identical to the reference in outputs and
// statistics; the kernel equivalence suite and the injected-stream
// goldens enforce this across rounding modes, AN, early termination,
// CIC, multi-bit cells and error injection.

// decodeWords selects the lane kernel's decode-width specialization for
// this cluster's static shape: 1 = single 64-bit word, 2 = 128-bit pair,
// 0 = multi-word. The per-(row, slice) reduction is
// Σ_t count_t·2^(t·planeBits) with count_t ≤ N·(2^B − 1) — the device
// model clamps noisy readouts to the same physical rail — so the exact
// bound is N·(2^B − 1)·(2^(nPlanes·B) − 1)/(2^B − 1). With multi-bit
// cells this can exceed 2^sumBits, so the gate uses the geometric
// bound, not sumBits.
func (c *Cluster) decodeWords() int {
	lmax := int64(1)<<c.planeBits - 1
	maxRed := new(big.Int).Lsh(big.NewInt(1), uint(c.nPlanes*c.planeBits))
	maxRed.Sub(maxRed, big.NewInt(1))
	maxRed.Div(maxRed, big.NewInt(lmax)) // exact: B divides nPlanes·B
	maxRed.Mul(maxRed, big.NewInt(int64(c.block.N)*lmax))
	switch {
	case maxRed.BitLen() <= 64:
		return 1
	case maxRed.BitLen() <= 128:
		return 2
	}
	return 0
}

// KernelName reports the MVM path this cluster runs, with the lane
// kernel's decode width ("exact", "lanes/64", "lanes/128",
// "lanes/multi", or "reference" for a test's oracle cluster) —
// diagnostics for benchmarks and equivalence tests.
func (c *Cluster) KernelName() string {
	switch {
	case c.exact:
		return "exact"
	case c.packed == nil:
		return "reference"
	}
	switch c.decWords {
	case 1:
		return "lanes/64"
	case 2:
		return "lanes/128"
	}
	return "lanes/multi"
}

// packedPlanes is the lane kernel's mirror of an injected cluster's
// programmed state. It is immutable after NewCluster: CIC inversion and
// static faults are applied before it is built, and refresh re-programs
// whole clusters through NewCluster. Forks share it the way they share
// planes.
type packedPlanes struct {
	nW    int // words per input bitmap, (N+63)/64
	lanes int // nPlanes·planeBits level-bit lanes

	// words is the lane mirror: for output row i and input word w, the
	// level-bit words of every plane sit consecutively, so countLanes
	// ANDs one input word against all planes in one contiguous pass:
	//
	//	words[(i·nW + w)·lanes + t·planeBits + b] = bit b of plane t,
	//	                                            output row i, input word w
	words []uint64

	// orWords, built only with multi-bit cells, holds the OR of each
	// plane's level bits per (row, word, plane) — the active-cell mask
	// behind the error model's onCells operand:
	// orWords[(i·nW + w)·nPlanes + t].
	orWords []uint64

	// inverted caches the per-(row, plane) CIC flags,
	// inverted[i·nPlanes+t]; nil when CIC inverted no column.
	inverted []bool

	// gains holds the static D2D column gains, gains[i·nPlanes+t]; nil
	// when the device model samples none, which spares the conversion
	// loop a multiply per plane.
	gains []float64
}

// buildConvBits tabulates convBits from the stored-level sums when ADC
// headstart is on.
func (c *Cluster) buildConvBits() {
	if !c.adc.Headstart {
		return
	}
	b := c.block
	nP := c.nPlanes
	lmax := 1<<c.planeBits - 1
	c.maxCap = bits.Len(uint(b.N * lmax))
	c.convBits = make([]uint32, b.M*(c.maxCap+1))
	res := c.adc.Resolution
	for i := 0; i < b.M; i++ {
		row := c.convBits[i*(c.maxCap+1) : (i+1)*(c.maxCap+1)]
		for _, s := range c.storedOnes[i*nP : (i+1)*nP] {
			lw := bits.Len(uint(s))
			for cl := range row {
				row[cl] += uint32(max(min(lw, cl, res), 1))
			}
		}
	}
}

// laneMirror interleaves the planes' level-bit words into the lane
// mirror of an injected cluster, with the per-plane active-cell OR words
// for multi-bit cells, the CIC flags and the D2D gains.
func (c *Cluster) laneMirror() *packedPlanes {
	b := c.block
	B, nP := c.planeBits, c.nPlanes
	pk := &packedPlanes{
		nW:    (b.N + 63) / 64,
		lanes: nP * B,
	}
	pk.words = make([]uint64, b.M*pk.nW*pk.lanes)
	pk.inverted = make([]bool, b.M*nP)
	anyInverted := false
	if c.cfg.Device.Faults.D2DSigma > 0 {
		pk.gains = make([]float64, b.M*nP)
	}
	for i := 0; i < b.M; i++ {
		for t := 0; t < nP; t++ {
			pk.inverted[i*nP+t] = c.planes[t].Inverted(i)
			anyInverted = anyInverted || pk.inverted[i*nP+t]
			if pk.gains != nil {
				pk.gains[i*nP+t] = c.planes[t].ColumnGain(i)
			}
			for lb := 0; lb < B; lb++ {
				cw := c.planes[t].ColumnWords(lb, i)
				lane := t*B + lb
				for w := 0; w < pk.nW; w++ {
					pk.words[(i*pk.nW+w)*pk.lanes+lane] = cw[w]
				}
			}
		}
	}
	if !anyInverted {
		pk.inverted = nil
	}
	if B > 1 {
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
	return pk
}

// mulVecLanes is the lane kernel: the exact traversal order of
// mulVecRef — vector slices outer (most significant first), output rows
// inner, settle checks after every slice — with each row's reduction
// taken from one fused pass over the row's lanes and the decode
// specialized to the cluster's reduction width. It consumes the
// stochastic draw stream in the reference order.
func (c *Cluster) mulVecLanes(x []float64) ([]float64, error) {
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
		for i := 0; i < b.M; i++ {
			if settled[i] {
				c.stats.ConversionsSkipped += uint64(c.nPlanes)
				continue
			}
			c.stats.Conversions += uint64(c.nPlanes)
			c.stats.ConversionBits += c.rowConvBits(i, capIdx)
			var hi, lo uint64
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
	if c.convBits == nil {
		return uint64(c.nPlanes * c.adc.Resolution)
	}
	return uint64(c.convBits[i*(c.maxCap+1)+capIdx])
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
// CIC-decoded counts in one device pass over the planes
// (device.Array.ConvertPlanes), which draws in ascending plane order —
// the exact draw order of the reference per-plane Column walk. Multi-bit
// cells first fold each plane's level-bit lanes into its stored-form
// count and take the active-cell counts the error model needs; single-bit
// lane counts are the stored-form counts and their own active-cell
// counts.
func (c *Cluster) planeCounts(i, popX int, xw []uint64) {
	ar := &c.arena
	pk := c.packed
	B, nP := c.planeBits, c.nPlanes
	stored, on := ar.cnts, []int(nil)
	if B > 1 {
		for t := range ar.pcnts {
			cv := ar.cnts[t*B]
			for lb := 1; lb < B; lb++ {
				cv += ar.cnts[t*B+lb] << lb
			}
			ar.pcnts[t] = cv
		}
		c.countOrLanes(i, xw)
		stored, on = ar.pcnts, ar.orCnts
	}
	var inv []bool
	if pk.inverted != nil {
		inv = pk.inverted[i*nP : (i+1)*nP]
	}
	var gains []float64
	if pk.gains != nil {
		gains = pk.gains[i*nP : (i+1)*nP]
	}
	c.arr.ConvertPlanes(ar.pcnts, stored, on, popX, inv, gains)
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
// reduction bound needs up to two words. The planes below bit 64 add
// into lo with carry and spill their top bits into hi (a shift by 64 is
// zero in Go, so plane 0 spills nothing); the rest add into hi alone.
// Neither loop branches on the counts.
func (c *Cluster) reduce128() (hi, lo uint64) {
	B := uint(c.planeBits)
	pc := c.arena.pcnts
	low := min(len(pc), int((64+B-1)/B)) // planes with t·B < 64
	for t, cv := range pc[:low] {
		s := uint(t) * B
		var carry uint64
		lo, carry = bits.Add64(lo, uint64(cv)<<s, 0)
		hi += uint64(cv)>>(64-s) + carry
	}
	for t := low; t < len(pc); t++ {
		hi += uint64(pc[t]) << (uint(t)*B - 64)
	}
	return hi, lo
}

// reduceWords is the multi-word fallback: per-plane counts shift-added
// into the cluster's raw reduction accumulator, as the reference does
// plane by plane.
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
// of decodeAccumulate's AN-divide / de-bias / shift-add sequence.
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

// applySlow routes a nonzero AN syndrome through the multi-word
// correction decode: the raw reduction is re-materialized into redWords
// and handed to decodeAccumulate, which runs the table corrector.
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
