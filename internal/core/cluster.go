package core

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync/atomic"

	"memsci/internal/ancode"
	"memsci/internal/device"
	"memsci/internal/obs"
	"memsci/internal/xbar"
)

// ClusterConfig selects the hardware features of a cluster engine.
type ClusterConfig struct {
	// Device is the memristor cell model; device.TaOx() for the paper's
	// Table I technology. BitsPerCell and error parameters come from it.
	Device device.Params
	// Seed drives the deterministic device-error sampler.
	Seed int64
	// InjectErrors enables the analog error model; when false the planes
	// produce exact digital sums (the design point the paper validates,
	// then stresses in Figures 12-13).
	InjectErrors bool
	// CIC enables computational invert coding (§V-B2). On by default in
	// DefaultClusterConfig.
	CIC bool
	// Headstart enables ADC headstart (§V-B2).
	Headstart bool
	// Rounding is the IEEE rounding mode for results (§IV-D).
	Rounding RoundingMode
	// DisableAN turns off AN decode/correction (ablation).
	DisableAN bool
	// DisableEarlyTermination forces full-width accumulation (ablation;
	// the naive 127×127 operation count of §IV-B).
	DisableEarlyTermination bool
	// VectorMaxPad bounds vector-segment alignment padding.
	VectorMaxPad int
	// MatrixQuant reduces the stored matrix encoding for mixed-precision
	// operation. The cluster itself programs whatever Block it is handed;
	// this field is the contract that the block was built with the same
	// policy (NewEngine passes it to NewBlockQuant) and makes the engine
	// configuration self-describing for cache fingerprints.
	MatrixQuant Quant
	// VectorQuant reduces the sliced input-vector encoding: fewer slice
	// applications per MulVec, hence fewer ADC conversions. The zero
	// value is the exact scheme.
	VectorQuant Quant
}

// DefaultClusterConfig returns the paper's evaluation configuration:
// 1-bit TaOx cells, CIC, ADC headstart, truncation rounding, AN
// protection, early termination enabled, no injected errors.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Device:       device.TaOx(),
		CIC:          true,
		Headstart:    true,
		Rounding:     TowardNegInf,
		VectorMaxPad: DefaultVectorMaxPad,
	}
}

// ReducedSliceConfig returns the paper's evaluation configuration with
// matrix and vector operands truncated to `bits` significand bits (full
// exponent alignment retained). It is the cheap inner engine for
// solver.Refine: slice counts — and with them ADC conversions — drop
// roughly quadratically in the significand width, while the fp64 outer
// refinement loop restores full accuracy.
func ReducedSliceConfig(bits int) ClusterConfig {
	c := DefaultClusterConfig()
	c.MatrixQuant = Quant{Mant: bits}
	c.VectorQuant = Quant{Mant: bits}
	return c
}

// BlockExpConfig returns the ReFloat-style configuration: `bits`
// significand bits plus a shared per-block exponent window of `window`
// bits. Values whose exponents fall below the window denormalize toward
// zero, which caps alignment padding — and therefore plane and slice
// counts — even on blocks with wide dynamic range.
func BlockExpConfig(bits, window int) ClusterConfig {
	c := DefaultClusterConfig()
	c.MatrixQuant = Quant{Mant: bits, Window: window}
	c.VectorQuant = Quant{Mant: bits, Window: window}
	return c
}

// ComputeStats aggregates the observable costs of cluster MVM operations,
// the quantities the performance and energy models consume.
type ComputeStats struct {
	// Ops counts MulVec invocations.
	Ops int
	// VectorSlicesApplied counts applied vector bit slices (cluster
	// latency is proportional to this times the column count).
	VectorSlicesApplied int
	// VectorSlicesTotal counts the slices a naive full computation would
	// have applied.
	VectorSlicesTotal int
	// Conversions counts ADC column conversions performed.
	Conversions uint64
	// ConversionsSkipped counts conversions avoided by early termination
	// (settled columns skip quantization, §III-B).
	ConversionsSkipped uint64
	// ConversionBits counts total SAR bit decisions (headstart reduces
	// this without changing Conversions).
	ConversionBits uint64
	// CrossbarActivations counts plane activations (vertical schedule).
	CrossbarActivations uint64
	// SaturationClamps counts ADC readouts that fell outside the
	// physically representable count range and were clamped. Under the
	// nominal model this never fires; heavy-fault scenarios saturate, and
	// a silently clamped count under-reports the true error magnitude,
	// so the event is surfaced as a hardware counter.
	SaturationClamps uint64
	// AN aggregates error-correction outcomes.
	AN ancode.Stats
	// ColumnSlicesUsed histograms, per MulVec output element, how many
	// vector slices were needed before settling (indexed per last call).
	ColumnSlicesUsed []int
	// MinSettleSlice is the lowest vector-slice index still processed
	// (the early-termination cutoff achieved on the last call).
	MinSettleSlice int
}

// Merge adds another accumulator's cumulative counters into s. Parallel
// workers keep private ComputeStats and merge them, in a fixed order,
// after the join; engine-level aggregation uses the same path so a field
// added here is aggregated everywhere. The per-call diagnostic fields
// (ColumnSlicesUsed, MinSettleSlice) describe only the most recent MulVec
// and are deliberately left untouched.
func (s *ComputeStats) Merge(o *ComputeStats) {
	s.Ops += o.Ops
	s.VectorSlicesApplied += o.VectorSlicesApplied
	s.VectorSlicesTotal += o.VectorSlicesTotal
	s.Conversions += o.Conversions
	s.ConversionsSkipped += o.ConversionsSkipped
	s.ConversionBits += o.ConversionBits
	s.CrossbarActivations += o.CrossbarActivations
	s.SaturationClamps += o.SaturationClamps
	s.AN.Merge(o.AN)
}

// HWCounters projects the accumulator onto the telemetry layer's
// hardware-counter vector: the quantities the paper's per-iteration
// claims are about (slices applied §IV-B, conversions saved by early
// termination §III-B, ADC conversions, AN detections/corrections §IV-E).
// Keeping the projection next to ComputeStats means a counter added to
// the stats pipeline has one place to become observable.
func (s *ComputeStats) HWCounters() obs.HWCounters {
	return obs.HWCounters{
		Slices:           int64(s.VectorSlicesApplied),
		EarlyTermSaved:   int64(s.ConversionsSkipped),
		ADCConversions:   int64(s.Conversions),
		ANDetected:       int64(s.AN.Corrected + s.AN.Ambiguous + s.AN.Uncorrectable),
		ANCorrected:      int64(s.AN.Corrected),
		SaturationClamps: int64(s.SaturationClamps),
	}
}

// resetPerCall rebinds the per-call diagnostic fields to arena-owned
// storage: ColumnSlicesUsed describes only the most recent MulVec, so
// the cluster can zero and reuse one backing slice instead of
// allocating a fresh histogram every call. ResetStats still detaches
// the pointer (the arena keeps the storage).
func (c *Cluster) resetPerCall() {
	buf := c.arena.colUsed
	for i := range buf {
		buf[i] = 0
	}
	c.stats.ColumnSlicesUsed = buf
	c.stats.MinSettleSlice = 0
}

// Cluster is the functional engine for one crossbar cluster: the 127
// bit-slice crossbars of §III-B holding one encoded matrix block, plus
// the shift-and-add reduction, AN decode, de-biasing, running-sum
// accumulation and early-termination logic of Figures 2-5.
type Cluster struct {
	cfg   ClusterConfig
	block *Block

	// planes are the bit-slice crossbars, built only for error injection
	// and the reference path (nil for a cluster on the exact kernel).
	planes    []*xbar.Plane
	planeBits int // bits per plane = Device.BitsPerCell
	nPlanes   int
	adc       xbar.ADC
	arr       *device.Array
	corr      *ancode.Corrector
	bias      *big.Int

	// storedOnes[i·nPlanes + t] is the stored (post-CIC, post-fault)
	// level sum of output row i in plane t, what ADC headstart bounds
	// each conversion by. The programming pass computes it from the
	// codewords, so it exists with or without planes.
	storedOnes []int32
	// convBits, present for the exact and lane kernels when ADC
	// headstart is on, tabulates the SAR bit decisions of one
	// (row, slice) pair as a function of the applied popcount bound's
	// bit length:
	// convBits[i·(maxCap+1) + Len(popX·lmax)] = Σ_t clamp(min(Len(w_t),
	// Len(popX·lmax)), 1, Resolution) over the stored-level sums w_t.
	// This is exact because Len is monotone, so Len(min(w, cap)) =
	// min(Len(w), Len(cap)).
	convBits []uint32
	maxCap   int

	// noiseSeed seeds this instance's stochastic error stream. The
	// origin cluster uses cfg.Seed; each fork derives an independent
	// stream from its parent's seed and a fork sequence number, so
	// concurrent forks never share (or replay) one generator.
	noiseSeed int64
	// forkSeq numbers the forks taken from this instance; atomic because
	// the serving layer forks lease pools concurrently.
	forkSeq atomic.Int64
	// age is the scenario time in seconds since this cluster's planes
	// were programmed; it positions the retention-drift model.
	age float64
	// stuckCells counts cells pinned by the stuck-at fault masks.
	stuckCells int

	// uMax is 2^UnsignedBits − 1, the AN corrector's per-unit-popcount
	// range cap.
	uMax *big.Int
	// rowBits[i] is the larger bit length of RowPos[i] and RowNeg[i],
	// the early-termination pre-check's row bound (settleImpossible).
	rowBits []int
	// redWords is the reduction accumulator (reused across columns).
	redWords []big.Word
	// sumBits bounds the reduction sum width (coded operand plus
	// summation growth); it sizes both redWords and the arena.
	sumBits int

	// exact selects the exact kernel (exact.go). Otherwise decWords is
	// the lane kernel's decode-width specialization (kernel.go): 1 =
	// single 64-bit word, 2 = 128-bit pair, 0 = multi-word, and
	// packed its lane mirror (nil on a reference cluster), immutable
	// after NewCluster and shared by forks like the planes.
	exact    bool
	decWords int
	packed   *packedPlanes

	// arena is the private per-cluster scratch for the MVM kernels:
	// vector encoding, running sums, temporaries. Allocated once at
	// NewCluster, reused by every MulVec, never shared — Fork builds a
	// fresh one.
	arena mvArena

	stats ComputeStats
}

// ClusterPlanes is the number of bit-slice crossbars per cluster with
// single-bit cells: a 118-bit biased operand times A=251 needs
// 118 + 9 = 127 planes (§III-B). Narrower blocks use fewer.
const ClusterPlanes = 127

// NewCluster programs a block into a fresh cluster: an error-free one
// runs the exact kernel (exact.go), an injected one the lane kernel
// (kernel.go). Both build on 64-bit words, so NewCluster refuses builds
// whose big.Word is narrower.
func NewCluster(block *Block, cfg ClusterConfig) (*Cluster, error) {
	return newCluster(block, cfg, false)
}

// newCluster is NewCluster, or with reference set a cluster on the
// big.Int reference MVM of cluster_ref.go, the oracle package core's
// tests hold both kernels to.
func newCluster(block *Block, cfg ClusterConfig, reference bool) (*Cluster, error) {
	if wordBits != 64 {
		return nil, fmt.Errorf("core: clusters need 64-bit words, this build has %d-bit ones", wordBits)
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.VectorMaxPad == 0 {
		cfg.VectorMaxPad = DefaultVectorMaxPad
	}
	if err := cfg.MatrixQuant.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.VectorQuant.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, block: block, bias: block.Code.Bias()}
	c.planeBits = cfg.Device.BitsPerCell

	codedBits := block.Code.UnsignedBits() + ancode.CheckBits - 1 // ×251 adds 8 bits
	c.nPlanes = (codedBits + c.planeBits - 1) / c.planeBits
	if c.nPlanes < 1 {
		c.nPlanes = 1
	}
	// Corrector candidate positions span the coded operand plus the bits
	// accumulated by summing up to N operands.
	c.sumBits = codedBits + bitsLen(block.N)

	if cfg.InjectErrors {
		c.noiseSeed = cfg.Seed
		c.arr = device.NewArray(cfg.Device, c.noiseSeed)
	}

	// An error-free cluster on the exact kernel computes each row's dot
	// product exactly and holds no bit plane, reduction scratch or AN
	// corrector; those exist for the device-error model and the
	// reference path.
	c.exact = !reference && !cfg.InjectErrors
	c.program(!c.exact)
	cic := cfg.CIC && c.planeBits == 1
	if cic {
		half := int32(block.N / 2)
		for k, s := range c.storedOnes {
			if s > half {
				c.storedOnes[k] = int32(block.N) - s
			}
		}
		for _, p := range c.planes {
			p.ApplyCIC()
		}
	}
	if cfg.InjectErrors && cfg.Device.Faults.Static() {
		c.applyStaticFaults()
	}
	c.adc = xbar.ADC{
		Resolution: xbar.RequiredResolution(block.N, c.planeBits, cic),
		Headstart:  cfg.Headstart,
	}
	c.rowBits = make([]int, block.M)
	for i := range c.rowBits {
		c.rowBits[i] = max(block.RowPos[i].BitLen(), block.RowNeg[i].BitLen())
	}
	if !c.exact {
		c.corr = ancode.NewCorrector(c.sumBits, 1) // single-count errors
		// Max decoded per-unit-popcount: 2^UnsignedBits − 1.
		c.uMax = new(big.Int).Lsh(big.NewInt(1), uint(block.Code.UnsignedBits()))
		c.uMax.Sub(c.uMax, big.NewInt(1))
		// Reduction accumulator: coded bits plus the summation growth.
		c.redWords = make([]big.Word, (c.sumBits+64+63)/64)
	}
	if !reference {
		c.buildConvBits()
	}
	if !reference && cfg.InjectErrors {
		c.decWords = c.decodeWords()
		c.packed = c.laneMirror()
	}
	c.initArena()
	return c, nil
}

// program stores the block in the cluster: every cell, absent elements
// included, holds its slice of the biased AN codeword U = A·(F + bias)
// (§III-B). All absent cells hold the same codeword U0 = A·bias, so one
// pass over the present cells does the work. The per-(row, plane)
// stored-level sums start at N·level_t(U0) and each present cell
// adjusts them by its difference from U0. With planes set, every plane
// is first filled with U0's level a word at a time and only the present
// cells that differ from it are then set one by one; without, the sums
// are all the cluster keeps.
func (c *Cluster) program(planes bool) {
	b := c.block
	B, nP := c.planeBits, c.nPlanes
	u0Lo, u0Hi := absentCodeword(uint(b.Code.Width))
	l0 := make([]uint8, nP)
	for t := range l0 {
		l0[t] = levelAt(u0Lo, u0Hi, t*B, B)
	}
	if planes {
		c.planes = make([]*xbar.Plane, nP)
		for t := range c.planes {
			c.planes[t] = xbar.NewPlane(b.M, b.N, B)
			c.planes[t].Fill(l0[t])
		}
	}
	c.storedOnes = make([]int32, b.M*nP)
	for i := 0; i < b.M; i++ {
		stored := c.storedOnes[i*nP : (i+1)*nP]
		for t, l := range l0 {
			stored[t] = int32(b.N) * int32(l)
		}
		for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
			f := b.F[p]
			if f.IsZero() {
				continue
			}
			// U = U0 + A·F: exact in two words, since U < 2^126.
			dLo, dHi := anProduct(f)
			uLo, cy := bits.Add64(u0Lo, dLo, 0)
			uHi := u0Hi + dHi + cy
			for t := range stored {
				lv := levelAt(uLo, uHi, t*B, B)
				if lv == l0[t] {
					continue
				}
				stored[t] += int32(lv) - int32(l0[t])
				if planes {
					c.planes[t].Set(i, int(b.Cols[p]), lv)
				}
			}
		}
	}
}

// anProduct returns A·F, the codeword delta U − U0 of a present cell,
// as a two-word two's-complement value: A·|F| < 2^126, negated for
// negative F.
func anProduct(f Int128) (lo, hi uint64) {
	h, lo := bits.Mul64(f.Lo, ancode.A)
	hi = f.Hi*ancode.A + h
	if f.Neg {
		var brw uint64
		lo, brw = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, brw)
	}
	return lo, hi
}

// absentCodeword returns U0 = A·2^width, the codeword every absent cell
// holds, as two little-endian words. Go defines a shift by 64 or more
// bits as zero, so the words are exact for every width below 120.
func absentCodeword(width uint) (lo, hi uint64) {
	m := uint64(ancode.A)
	return m << width, m<<(width-64) | m>>(64-width)
}

// levelAt returns the B-bit cell level at bit position pos < 128 of the
// two-word value (hi, lo).
func levelAt(lo, hi uint64, pos, B int) uint8 {
	var w uint64
	if pos < 64 {
		w = lo>>uint(pos) | hi<<uint(64-pos)
	} else {
		w = hi >> uint(pos-64)
	}
	return uint8(w & (1<<uint(B) - 1))
}

// addShifted adds v·2^shift into a little-endian word accumulator. The
// accumulator must be sized so the result fits: the value lands in words
// w = shift/64 and w+1, and any carry must be absorbed before the slice
// ends. NewCluster sizes redWords with 64 bits of headroom over the
// maximum possible reduction sum, so the guards below are unreachable in
// the MulVec pipeline; they turn an undersized accumulator into a
// diagnosable panic instead of an out-of-range index mid-carry.
func addShifted(words []big.Word, shift uint, v uint64) {
	if v == 0 {
		return
	}
	w, off := int(shift/64), shift%64
	if w >= len(words) {
		panic(fmt.Sprintf("core: addShifted shift %d lands at word %d, accumulator has %d", shift, w, len(words)))
	}
	lo := v << off
	var hi uint64
	if off != 0 {
		hi = v >> (64 - off)
	}
	s := uint64(words[w]) + lo
	carry := uint64(0)
	if s < lo {
		carry = 1
	}
	words[w] = big.Word(s)
	i := w + 1
	add := hi + carry
	for add != 0 {
		if i >= len(words) {
			panic(fmt.Sprintf("core: addShifted carry past word %d, accumulator has %d (undersized)", i, len(words)))
		}
		s = uint64(words[i]) + add
		if s < add {
			add = 1
		} else {
			add = 0
		}
		words[i] = big.Word(s)
		i++
	}
}

// Fork returns a cluster sharing c's programmed state — the encoded
// bit-slice planes (with CIC inversion, stuck-at masks and D2D gains)
// or lane mirror, the stored-level sums, the AN corrector table, the
// bias and the block — with private scratch and statistics, so the fork
// costs none of the programming work of NewCluster. The shared state is
// immutable after NewCluster, and Fork reads none of the mutable fields,
// so a fork may be taken from, and run MulVec concurrently with, a
// cluster that is mid-computation. With error injection disabled (the
// validated design point) a fork is bit-identical to a freshly
// programmed cluster; with injection enabled it samples an independent
// error stream derived from the parent's seed and the fork sequence
// number — concurrent forks never replay one another's draws
// (previously every fork restarted the configured seed, so supposedly
// independent Monte-Carlo forks saw perfectly correlated errors). The
// fork inherits the parent's retention age and stuck-cell count: it
// models another read port on the same aging silicon.
func (c *Cluster) Fork() *Cluster {
	n := &Cluster{
		cfg:        c.cfg,
		block:      c.block,
		planes:     c.planes,
		planeBits:  c.planeBits,
		storedOnes: c.storedOnes,
		nPlanes:    c.nPlanes,
		adc:        c.adc,
		corr:       c.corr,
		bias:       c.bias,
		uMax:       c.uMax,
		rowBits:    c.rowBits,
		sumBits:    c.sumBits,
		redWords:   make([]big.Word, len(c.redWords)),
		age:        c.age,
		stuckCells: c.stuckCells,
		exact:      c.exact,
		decWords:   c.decWords,
		packed:     c.packed,
		convBits:   c.convBits,
		maxCap:     c.maxCap,
	}
	n.initArena()
	if c.cfg.InjectErrors {
		n.noiseSeed = device.DeriveSeed(c.noiseSeed, streamFork+uint64(c.forkSeq.Add(1)))
		n.arr = device.NewArray(c.cfg.Device, n.noiseSeed)
		n.arr.SetTime(n.age)
	}
	return n
}

// Stream-tag constants separating the derived-seed spaces hanging off
// one cluster seed: fork streams, per-RHS batch streams, and the static
// per-plane fault samplers must never collide.
const (
	streamFork  = 0x10_0000
	streamRHS   = 0x20_0000
	streamStuck = 0x30_0000
	streamD2D   = 0x40_0000
)

// SetAge positions the cluster t seconds after its last programming:
// the retention-drift model decays active-cell conductance accordingly.
// A cluster without error injection ignores age.
func (c *Cluster) SetAge(t float64) {
	c.age = t
	if c.arr != nil {
		c.arr.SetTime(t)
	}
}

// Age returns the scenario seconds since the planes were programmed.
func (c *Cluster) Age() float64 { return c.age }

// StuckCells returns the number of cells pinned by the stuck-at fault
// masks at programming time.
func (c *Cluster) StuckCells() int { return c.stuckCells }

// ReseedErrors restarts the stochastic error stream at a seed derived
// from the cluster's base seed, a batch epoch, and a stream index. The
// multi-RHS batch path reseeds every cluster with (epoch, rhs index)
// before computing each right-hand side, which makes the error draws a
// pure function of the RHS position — independent of worker count,
// scheduling, and of which fork happens to execute it. A no-op without
// error injection.
func (c *Cluster) ReseedErrors(epoch, stream uint64) {
	if c.arr == nil {
		return
	}
	c.arr.Reseed(device.DeriveSeed(device.DeriveSeed(c.cfg.Seed, streamRHS+epoch), stream))
}

// ResetStats clears the accumulated compute statistics so the next Stats
// call reports only work performed after the reset.
func (c *Cluster) ResetStats() { c.stats = ComputeStats{} }

// Block returns the programmed block.
func (c *Cluster) Block() *Block { return c.block }

// Planes returns the number of bit-slice crossbars in use.
func (c *Cluster) Planes() int { return c.nPlanes }

// ADCResolution returns the per-crossbar ADC resolution in bits.
func (c *Cluster) ADCResolution() int { return c.adc.Resolution }

// Stats returns the accumulated compute statistics.
func (c *Cluster) Stats() *ComputeStats { return &c.stats }

// MulVec performs the cluster MVM y = B·x with the full §III-B pipeline:
// vector bit slices are applied most significant first; each plane's
// column sums pass through the shift-and-add reduction; the fixed-point
// partial dot product is AN-checked, de-biased, and accumulated into the
// per-output running sum; outputs retire as soon as their IEEE mantissa
// settles (§IV-B).
//
// The returned slice is owned by the cluster's scratch arena and is
// overwritten by the next MulVec call; callers that retain results
// across calls use MulVecInto. (The reference path allocates a fresh
// slice, but callers must not rely on that.)
func (c *Cluster) MulVec(x []float64) ([]float64, error) {
	var (
		y   []float64
		err error
	)
	switch {
	case c.exact:
		y, err = c.mulVecExact(x)
	case c.packed != nil:
		y, err = c.mulVecLanes(x)
	default:
		y, err = c.mulVecRef(x)
	}
	if c.arr != nil {
		// Fold the ADC saturation events of this call into the hardware
		// counters; the lane kernel and the reference share the sampler,
		// so the accounting is identical on either.
		c.stats.SaturationClamps += c.arr.TakeClamps()
	}
	return y, err
}

// MulVecInto is MulVec writing into a caller-owned destination of
// length M, for callers that hold results across calls.
func (c *Cluster) MulVecInto(dst []float64, x []float64) error {
	y, err := c.MulVec(x)
	if err != nil {
		return err
	}
	if len(dst) != len(y) {
		return fmt.Errorf("core: destination length %d != block rows %d", len(dst), len(y))
	}
	copy(dst, y)
	return nil
}

func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}
