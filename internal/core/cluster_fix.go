package core

import (
	"fmt"
	"math/big"

	"memsci/internal/ancode"
)

// mvArena is the per-cluster scratch for the fixed-width MVM hot path:
// everything a MulVec call needs beyond the programmed planes, sized
// once at NewCluster and reused by every call. A cluster owns exactly
// one arena and never shares it; Fork allocates a fresh one, so forks
// can run MulVec concurrently with the origin.
type mvArena struct {
	// vs holds the sliced input vector (bitmaps, popcounts, aligned
	// integers), re-sliced in place each call.
	vs VectorSlices
	// runBack is the single backing array behind all running-sum
	// magnitudes; run[i] is a zero-length full-capacity view of its
	// private region, so per-row accumulation never allocates and rows
	// cannot alias.
	runBack []big.Word
	run     []Fix
	settled []bool
	y       []float64
	colUsed []int
	// Loop temporaries: quotient/decoded operand, per-row contribution,
	// de-bias term, early-termination interval endpoints.
	q, contrib, biased, lo, hi Fix
	// Rare-path big.Int scratch (AN correction only): pBig views the
	// raw accumulator via SetBits aliasing, minBig stays zero, maxBig
	// and popBig build the corrector's range bound.
	pBig, maxBig, minBig, popBig big.Int
	corrScr                      ancode.Scratch
	// Packed-kernel scratch (kernel.go): per-row codeword sums (low,
	// high and carry words), fused per-lane AND-popcounts, and per-plane
	// active-cell and decoded counts.
	sumLo, sumHi, sumTop []uint64
	cnts                 []int
	orCnts               []int
	pcnts                []int
}

// initArena sizes the scratch from the cluster's static bounds: running
// sums and interval endpoints are below 2^(sumBits + vector width), so
// every Fix gets capacity for that plus carry headroom. (A Fix that
// still outgrows its capacity reallocates transparently — sizing is a
// performance bound, not a correctness one.)
func (c *Cluster) initArena() {
	m := c.block.M
	maxVecWidth := MantissaBits + c.cfg.VectorMaxPad + 1
	fixWords := (c.sumBits+maxVecWidth)/wordBits + 3
	a := &c.arena
	a.runBack = make([]big.Word, m*fixWords)
	a.run = make([]Fix, m)
	for i := range a.run {
		a.run[i] = Fix{w: a.runBack[i*fixWords : i*fixWords : (i+1)*fixWords]}
	}
	a.settled = make([]bool, m)
	a.y = make([]float64, m)
	a.colUsed = make([]int, m)
	a.q = newFixWords(fixWords)
	a.contrib = newFixWords(fixWords)
	a.biased = newFixWords(fixWords)
	a.lo = newFixWords(fixWords)
	a.hi = newFixWords(fixWords)
	a.sumLo = make([]uint64, m)
	a.sumHi = make([]uint64, m)
	a.sumTop = make([]uint64, m)
	a.cnts = make([]int, c.nPlanes*c.planeBits)
	a.orCnts = make([]int, c.nPlanes)
	a.pcnts = make([]int, c.nPlanes)
}

// mulVecFix is the allocation-free MulVec: the same §III-B pipeline as
// mulVecRef, step for step, with every big.Int replaced by arena-owned
// fixed-width storage. Equivalence is structural — each replacement
// computes the identical integer (and is property-tested to) — and
// enforced end to end by the golden tests against ReferenceMVM.
func (c *Cluster) mulVecFix(x []float64) ([]float64, error) {
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
		return y, nil // zero vector or zero block
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

	applied := 0
	for j := vs.Width - 1; j >= 0 && unsettled > 0; j-- {
		slice := vs.Slices[j]
		popX := vs.Pop[j]
		applied++
		c.stats.VectorSlicesApplied++
		c.stats.CrossbarActivations += uint64(c.nPlanes)
		c.stats.MinSettleSlice = j

		if popX == 0 {
			// An all-zero slice contributes nothing but still counts as a
			// (cheap) application; settled columns are re-checked below
			// because the remaining-weight bound shrank.
			c.checkSettleFix(&unsettled, y, j, scale, applied)
			continue
		}
		// De-bias term B·pop(x_j): the bias is 2^Width, so the product
		// is a pure shift of the popcount.
		ar.biased.SetUint(uint64(popX))
		ar.biased.Lsh(uint(b.Code.Width))
		negWeight := vs.Weight(j)

		for i := 0; i < b.M; i++ {
			if settled[i] {
				c.stats.ConversionsSkipped += uint64(c.nPlanes)
				continue
			}
			// Shift-and-add reduction across planes: counts land at bit
			// position plane·bitsPerCell, accumulated in raw words.
			for w := range c.redWords {
				c.redWords[w] = 0
			}
			for t := 0; t < c.nPlanes; t++ {
				res := c.planes[t].Column(i, slice, popX, c.arr, c.adc)
				c.stats.Conversions++
				c.stats.ConversionBits += uint64(res.BitsConverted)
				addShifted(c.redWords, uint(t*c.planeBits), uint64(res.Count))
			}
			c.decodeAccumulate(i, j, popX, negWeight)
		}
		c.checkSettleFix(&unsettled, y, j, scale, applied)
	}
	// Anything still unsettled after the last slice is exact.
	for i := 0; i < b.M; i++ {
		if !settled[i] {
			y[i] = run[i].Round(scale, c.cfg.Rounding)
			c.stats.ColumnSlicesUsed[i] = vs.Width
		}
	}
	return y, nil
}

// decodeAccumulate is the generic decode of one (row, slice) reduction
// accumulated in c.redWords: AN check (and rare table correction),
// de-bias against the prepared ar.biased term, and signed accumulation
// into row i's running sum. Shared verbatim by the generic kernel's
// inner loop and the packed kernel's multi-word and correction paths.
func (c *Cluster) decodeAccumulate(i, j, popX int, negWeight bool) {
	ar := &c.arena
	// AN decode: P = A·Σ U·x must be divisible by A. Copy the
	// accumulator (redWords stays intact for the rare correction
	// path) and divide in place; the quotient is the floor decode
	// either way.
	ar.q.SetWords(c.redWords)
	rem := ar.q.DivModSmall(ancode.A)
	if !c.cfg.DisableAN {
		if rem == 0 {
			c.stats.AN.Add(ancode.OK)
		} else {
			// Nonzero syndrome: run the table decoder over a big.Int
			// view of the raw accumulator (SetBits aliases, no copy)
			// with arena scratch.
			p := ar.pBig.SetBits(c.redWords)
			ar.popBig.SetInt64(int64(popX))
			ar.maxBig.Mul(c.uMax, &ar.popBig)
			q, out := c.corr.CorrectInto(p, &ar.minBig, &ar.maxBig, &ar.corrScr)
			c.stats.AN.Add(out)
			ar.q.SetBig(q)
		}
	}
	// De-bias: D = Q − B·pop(x_j) = Σ F·x_j, then accumulate with
	// the slice weight ±2^j.
	ar.contrib.SetFix(&ar.q)
	ar.contrib.Sub(&ar.biased)
	ar.contrib.Lsh(uint(j))
	if negWeight {
		ar.run[i].Sub(&ar.contrib)
	} else {
		ar.run[i].Add(&ar.contrib)
	}
}

// rowSettled runs the early-termination interval test for one row after
// slice j: the endpoints run + (2^j − 1)·Row± are built as
// (Row << j) − Row + run — the same integers IntervalSettled sums —
// without a multiply or an allocation. settleImpossible first turns
// away, without rounding, the rows whose interval is still too wide.
func (c *Cluster) rowSettled(i, j, scale int) (float64, bool) {
	ar := &c.arena
	if settleImpossible(ar.run[i].BitLen(), c.rowBits[i], j, scale) {
		return 0, false
	}
	pos, neg := c.block.RowPos[i], c.block.RowNeg[i]
	ar.lo.SetBig(neg)
	ar.lo.Lsh(uint(j))
	ar.lo.SubBig(neg)
	ar.lo.Add(&ar.run[i])
	ar.hi.SetBig(pos)
	ar.hi.Lsh(uint(j))
	ar.hi.SubBig(pos)
	ar.hi.Add(&ar.run[i])
	return ar.lo.RoundMonotone(&ar.hi, scale, c.cfg.Rounding)
}

// settleImpossible reports that a row whose running sum has bit length
// runBits cannot settle after slice j, given the bit length rowBits of
// the larger row bound |RowPos| or |RowNeg|. The interval width
// (2^j − 1)·(RowPos − RowNeg) is at least 2^(j+rowBits−2), and two
// reals that round to one float64 lie in that float's rounding
// preimage, which holds the running sum and is narrower than two of its
// ulps, 2^(runBits−52) in integer units. (One ulp is not enough: under
// round-to-nearest the preimage of a power of two straddles two binades
// and is 1.5 ulps of the binade below wide.) Subnormal results have a
// wider ulp and overflowing ones an unbounded preimage, so near either
// end of the exponent range, and for a zero sum, the full test runs.
func settleImpossible(runBits, rowBits, j, scale int) bool {
	lead := runBits - 1 + scale // exponent of the running sum's leading digit
	if runBits == 0 || rowBits == 0 || lead < -1000 || lead > 1000 {
		return false
	}
	return j+rowBits-2 >= runBits-52
}

// checkSettleFix applies the early-termination test of checkSettleRef to
// every unsettled row (the slice-major kernels' per-slice sweep).
func (c *Cluster) checkSettleFix(unsettled *int, y []float64, j, scale, applied int) {
	if c.cfg.DisableEarlyTermination || j == 0 {
		return
	}
	ar := &c.arena
	for i := range ar.run {
		if ar.settled[i] {
			continue
		}
		if v, ok := c.rowSettled(i, j, scale); ok {
			ar.settled[i] = true
			y[i] = v
			c.stats.ColumnSlicesUsed[i] = applied
			*unsettled--
		}
	}
}
