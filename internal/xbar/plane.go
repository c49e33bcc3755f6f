package xbar

import (
	"fmt"

	"memsci/internal/device"
)

// Plane is one bit-slice crossbar of a cluster: it stores, for every
// output column (one per matrix row of the block), the cells holding one
// slice of the AN-coded fixed-point operands. With single-bit cells a
// plane holds exactly one bit of each operand; with B-bit cells it holds
// B consecutive bits as a level in [0, 2^B).
//
// Orientation follows the paper's memory-systems convention (§II-A,
// footnote 1): matrix rows map to crossbar *columns*; the input vector is
// applied on crossbar *rows*, one per matrix column of the block.
//
// Storage is one bitmap per level bit per output column, so a column sum
// Σ_j level(i,j)·x_j reduces to B AND-popcounts — the digital equivalent
// of the analog current summation.
type Plane struct {
	outputs     int // crossbar columns = matrix rows in the block
	inputs      int // crossbar rows    = matrix columns in the block
	bitsPerCell int

	// bits[b][i] holds bit b of every cell level in output column i.
	bits [][]*Bitmap

	inverted []bool // CIC flag per output column (single-bit planes only)
	weight   []int  // Σ stored levels per output column (post-inversion)

	// colGain holds the static per-column conductance gain sampled from
	// the device-to-device variation model at programming time; nil (the
	// common case) means no variation, and the hot path pays only a nil
	// check.
	colGain []float64
}

// NewPlane allocates an empty plane.
func NewPlane(outputs, inputs, bitsPerCell int) *Plane {
	if bitsPerCell < 1 {
		panic("xbar: bitsPerCell must be >= 1")
	}
	p := &Plane{
		outputs:     outputs,
		inputs:      inputs,
		bitsPerCell: bitsPerCell,
		inverted:    make([]bool, outputs),
		weight:      make([]int, outputs),
		bits:        make([][]*Bitmap, bitsPerCell),
	}
	// One word slab and one Bitmap slab back every column of every level
	// bit: a cluster programs O(planes) planes, and per-column NewBitmap
	// calls used to dominate engine-programming allocations. Each view is
	// capacity-limited so an accidental append can never bleed into its
	// neighbor.
	wordsPer := (inputs + 63) / 64
	slab := make([]uint64, bitsPerCell*outputs*wordsPer)
	bms := make([]Bitmap, bitsPerCell*outputs)
	for b := range p.bits {
		cols := make([]*Bitmap, outputs)
		for i := range cols {
			k := b*outputs + i
			bm := &bms[k]
			bm.n = inputs
			bm.words = slab[k*wordsPer : (k+1)*wordsPer : (k+1)*wordsPer]
			cols[i] = bm
		}
		p.bits[b] = cols
	}
	return p
}

// Outputs returns the number of output columns.
func (p *Plane) Outputs() int { return p.outputs }

// Inputs returns the number of input rows.
func (p *Plane) Inputs() int { return p.inputs }

// BitsPerCell returns the cell resolution.
func (p *Plane) BitsPerCell() int { return p.bitsPerCell }

// Set programs the cell for output column i, input row j to the given
// level (must fit in bitsPerCell bits). Programming happens before CIC.
func (p *Plane) Set(i, j int, level uint8) {
	if int(level) >= 1<<p.bitsPerCell {
		panic(fmt.Sprintf("xbar: level %d exceeds %d-bit cell", level, p.bitsPerCell))
	}
	old := 0
	for b := 0; b < p.bitsPerCell; b++ {
		if p.bits[b][i].Get(j) {
			old |= 1 << b
		}
		p.bits[b][i].Set(j, level&(1<<b) != 0)
	}
	p.weight[i] += int(level) - old
}

// Fill programs every cell of the plane to the given level a word at a
// time: each level bit's column bitmaps become all ones or all zeros.
// It is the bulk form of Set for the cells that share one value (the
// absent elements of a block); like Set, it happens before CIC.
func (p *Plane) Fill(level uint8) {
	if int(level) >= 1<<p.bitsPerCell {
		panic(fmt.Sprintf("xbar: level %d exceeds %d-bit cell", level, p.bitsPerCell))
	}
	for b, cols := range p.bits {
		var fill uint64
		if level&(1<<b) != 0 {
			fill = ^uint64(0)
		}
		for _, c := range cols {
			for w := range c.words {
				c.words[w] = fill
			}
			if n := len(c.words); n > 0 {
				c.words[n-1] &= c.tailMask()
			}
		}
	}
	for i := range p.weight {
		p.weight[i] = p.inputs * int(level)
	}
}

// Get reads back the stored level at (i, j), undoing CIC inversion.
func (p *Plane) Get(i, j int) uint8 {
	var level uint8
	for b := 0; b < p.bitsPerCell; b++ {
		if p.bits[b][i].Get(j) {
			level |= 1 << b
		}
	}
	if p.inverted[i] && p.bitsPerCell == 1 {
		level ^= 1
	}
	return level
}

// ApplyCIC applies computational invert coding (§V-B2): any single-bit
// output column with more than half its cells set is stored inverted so
// that no column ever holds more than inputs/2 ones, statically reducing
// the required ADC resolution by one bit. Returns the number of columns
// inverted. Multi-bit planes are left unchanged (the paper's sensitivity
// study drops CIC for multi-bit cells).
func (p *Plane) ApplyCIC() int {
	if p.bitsPerCell != 1 {
		return 0
	}
	inv := 0
	for i, c := range p.bits[0] {
		if p.inverted[i] {
			continue
		}
		if ones := c.PopCount(); ones > p.inputs/2 {
			c.Invert()
			p.inverted[i] = true
			p.weight[i] = p.inputs - ones
			inv++
		}
	}
	return inv
}

// Inverted reports whether CIC inverted output column i.
func (p *Plane) Inverted(i int) bool { return p.inverted[i] }

// SetColumnGain records the static conductance gain of output column i
// (device-to-device variation; 1 = nominal). Gains multiply the analog
// active-column current observed by the error model; they are sampled
// once per plane at programming time from a seed derived off the
// cluster seed, so they survive re-programming the way real silicon
// does.
func (p *Plane) SetColumnGain(i int, g float64) {
	if p.colGain == nil {
		p.colGain = make([]float64, p.outputs)
		for k := range p.colGain {
			p.colGain[k] = 1
		}
	}
	p.colGain[i] = g
}

// ColumnGain returns the static conductance gain of output column i
// (1 when no variation was applied).
func (p *Plane) ColumnGain(i int) float64 {
	if p.colGain == nil {
		return 1
	}
	return p.colGain[i]
}

// ForceStoredLevel overrides the stored (post-CIC) form of the cell at
// output column i, input row j with the given level, modeling a
// stuck-at fault: a stuck cell holds its physical state regardless of
// what the programming pass or the CIC inversion decided to store. The
// column weight is adjusted so ADC sizing and early-ADC bounds see the
// faulted array.
func (p *Plane) ForceStoredLevel(i, j int, level uint8) {
	if int(level) >= 1<<p.bitsPerCell {
		panic(fmt.Sprintf("xbar: forced level %d exceeds %d-bit cell", level, p.bitsPerCell))
	}
	old := 0
	for b := 0; b < p.bitsPerCell; b++ {
		if p.bits[b][i].Get(j) {
			old |= 1 << b
		}
		p.bits[b][i].Set(j, level&(1<<b) != 0)
	}
	p.weight[i] += int(level) - old
}

// StoredLevel reads the raw stored (post-CIC) form of the cell at
// (i, j), without undoing CIC inversion — the physical state a stuck-at
// fault pins.
func (p *Plane) StoredLevel(i, j int) uint8 {
	var level uint8
	for b := 0; b < p.bitsPerCell; b++ {
		if p.bits[b][i].Get(j) {
			level |= 1 << b
		}
	}
	return level
}

// StoredOnes returns the stored (post-CIC) level sum of output column i.
func (p *Plane) StoredOnes(i int) int { return p.weight[i] }

// MaxColumnOnes returns the maximum stored level sum over all output
// columns; with CIC applied this is at most inputs/2 for single-bit
// planes, which is what lets the ADC drop one bit of resolution.
func (p *Plane) MaxColumnOnes() int {
	m := 0
	for _, w := range p.weight {
		if w > m {
			m = w
		}
	}
	return m
}

// ColumnResult is the outcome of quantizing one output column.
type ColumnResult struct {
	// Count is the digital column sum after CIC decoding: Σ_j level(i,j)·x_j.
	Count int
	// Raw is the pre-CIC-decoding quantity the ADC actually converted.
	Raw int
	// BitsConverted is the number of SAR steps after ADC headstart.
	BitsConverted int
}

// Column performs one column quantization: the analog dot product of the
// stored column with the applied bit slice x, observed through the
// optional device-error model, then CIC-decoded back to the true sum.
//
// popX must equal x.PopCount() (callers compute it once per slice).
func (p *Plane) Column(i int, x *Bitmap, popX int, arr *device.Array, adc ADC) ColumnResult {
	var stored int // exact stored-form count Σ stored_level·x
	for b := 0; b < p.bitsPerCell; b++ {
		stored += x.AndPopCountWords(p.bits[b][i].words) << b
	}

	observed := stored
	if arr != nil {
		onCells := stored
		if p.bitsPerCell != 1 {
			// Applied cells at nonzero level: popcount of (OR of level
			// bitmaps) AND x.
			onCells = orAndPopCount(p.bits, i, x)
		}
		offCells := popX - onCells
		gain := 1.0
		if p.colGain != nil {
			gain = p.colGain[i]
		}
		observed = arr.PerturbCountVar(stored, onCells, offCells, gain)
	}

	lmax := 1<<p.bitsPerCell - 1
	bitsUsed := adc.ConversionBits(minInt(p.weight[i], popX*lmax))

	count := observed
	if p.inverted[i] {
		// CIC decoding: true = popX − stored-form count (§V-B2).
		count = popX - observed
		if count < 0 {
			count = 0 // a noisy observation cannot exceed the CIC bound
		}
	}
	return ColumnResult{Count: count, Raw: observed, BitsConverted: bitsUsed}
}

// orAndPopCount computes popcount((bits[0][i] | bits[1][i] | ...) & x).
// The per-level column word slices are hoisted once into stack scratch so
// the inner loop ORs contiguous storage into a single scratch word per
// position instead of re-walking the nested bits[b][i] indirection for
// every word. The scratch lives on the stack (not the Plane): planes are
// shared by forks that run Column concurrently.
func orAndPopCount(bits [][]*Bitmap, i int, x *Bitmap) int {
	var scratch [8][]uint64
	sc := scratch[:0]
	for b := range bits {
		sc = append(sc, bits[b][i].words)
	}
	n := 0
	tail := len(x.words) - 1
	for w, xw := range x.words {
		var or uint64
		for _, cw := range sc {
			or |= cw[w]
		}
		if w == tail {
			xw &= x.tailMask()
		}
		n += onesCount64(or & xw)
	}
	return n
}

// ColumnWords exposes the raw word storage of level bit b of output
// column i — the packed-layout builder in internal/core copies these
// spans into its interleaved SWAR mirror. The returned slice aliases
// plane state and must be treated as read-only.
func (p *Plane) ColumnWords(b, i int) []uint64 { return p.bits[b][i].words }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
