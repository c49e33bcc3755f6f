// Package accel assembles the full accelerator of §III and §VI: 128
// banks, each with a heterogeneous set of clusters (2×512, 4×256, 6×128,
// 8×64) and a LEON3-class local processor, connected through a global
// memory. It provides
//
//   - Map: capacity-aware assignment of a blocking.Plan onto physical
//     clusters (over-subscribed size classes split blocks down; overflow
//     past the smallest size joins the local-processor remainder) and of
//     unblocked CSR work onto the bank processors;
//   - an analytic performance/energy model for the solver kernels
//     (SpMV, dot, AXPY) and for matrix programming (write) time;
//   - Engine: a functional, bit-exact operator backed by core.Cluster,
//     used for convergence studies and verification.
package accel

import (
	"math"
	"sort"

	"memsci/internal/blocking"
	"memsci/internal/energy"
	"memsci/internal/gpu"
)

// System bundles the accelerator configuration with the GPU baseline it
// cooperates with (§VIII-A: matrices that block poorly run on the GPU).
type System struct {
	Cfg energy.Config
	GPU gpu.Model
}

// NewSystem returns the paper's evaluated system: Table I accelerator
// plus Tesla P100.
func NewSystem() *System {
	return &System{Cfg: energy.Default(), GPU: gpu.P100()}
}

// Mapped is a matrix mapped onto the accelerator. Each accepted block
// occupies one physical cluster for the lifetime of the solve (the matrix
// is programmed once and reused across iterations, §VIII-E), so a size
// class holds at most Banks × ClustersPerBank[size] blocks; Map splits
// overflow blocks down to smaller clusters and, past the smallest size,
// reassigns their nonzeros to the local processors.
type Mapped struct {
	Sys  *System
	Plan *blocking.Plan

	// Assigned holds the blocks resident per size class after capacity
	// balancing.
	Assigned map[int][]*blocking.Block
	// SpilledNNZ counts block nonzeros that did not fit any cluster and
	// execute on the local processors instead.
	SpilledNNZ int
	// UnblockedNNZ is the CSR remainder (plan) plus SpilledNNZ.
	UnblockedNNZ int
	// MaxBankUnblocked is the unblocked work of the busiest bank. The
	// paper evaluates the bank with the most unblocked elements (§VII-B);
	// unblocked rows are spread over the bank processors with a residual
	// imbalance factor.
	MaxBankUnblocked int
	// UnblockedScatter is the far-from-diagonal fraction (|i−j| beyond
	// a 4096-element window) of the unblocked remainder, which sets its
	// per-element gather cost.
	UnblockedScatter float64
	// OwnerBanks is the number of banks owning a vector section (§VI).
	OwnerBanks int
}

// unblockedSkew is the residual load imbalance across bank processors.
const unblockedSkew = 1.15

// Map assigns a preprocessing plan to the system's physical clusters.
func Map(plan *blocking.Plan, sys *System) (*Mapped, error) {
	if err := sys.Cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Mapped{Sys: sys, Plan: plan, Assigned: map[int][]*blocking.Block{}}

	capacity := map[int]int{}
	sizes := []int{}
	for _, cc := range sys.Cfg.ClusterCounts() {
		capacity[cc.Size] = sys.Cfg.Banks * cc.Count
		sizes = append(sizes, cc.Size)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))

	pending := map[int][]*blocking.Block{}
	for _, b := range plan.Blocks {
		pending[b.Size] = append(pending[b.Size], b)
	}
	for idx, size := range sizes {
		blocks := pending[size]
		// Largest blocks first; within a class keep the densest resident
		// and split the sparsest (they lose the least parallelism).
		sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].NNZ() > blocks[j].NNZ() })
		cap := capacity[size]
		if len(blocks) <= cap {
			m.Assigned[size] = blocks
			continue
		}
		m.Assigned[size] = blocks[:cap]
		for _, b := range blocks[cap:] {
			if idx+1 == len(sizes) {
				m.SpilledNNZ += b.NNZ() // smallest class full: local processor
				continue
			}
			next := sizes[idx+1]
			queue := b.Split()
			for len(queue) > 0 {
				child := queue[0]
				queue = queue[1:]
				if child.Size > next {
					queue = append(queue, child.Split()...)
					continue
				}
				pending[next] = append(pending[next], child)
			}
		}
	}

	sec := sys.Cfg.VectorSection
	m.OwnerBanks = (plan.Rows + sec - 1) / sec
	if m.OwnerBanks > sys.Cfg.Banks {
		m.OwnerBanks = sys.Cfg.Banks
	}
	m.UnblockedNNZ = plan.Unblocked.NNZ() + m.SpilledNNZ
	perBank := float64(m.UnblockedNNZ) / float64(sys.Cfg.Banks)
	m.MaxBankUnblocked = int(perBank * unblockedSkew)
	m.UnblockedScatter = scatterFraction(plan.Unblocked, 4096)
	return m, nil
}

// BlocksAssigned returns the resident block count for a size class.
func (m *Mapped) BlocksAssigned(size int) int { return len(m.Assigned[size]) }

// TotalBlocks returns the number of resident blocks.
func (m *Mapped) TotalBlocks() int {
	n := 0
	for _, bs := range m.Assigned {
		n += len(bs)
	}
	return n
}

// SlicesForBlock estimates the vector bit slices a cluster applies for
// one MVM under early termination (§IV-B): the 53 result mantissa bits,
// the log₂(size) bits consumed by current summation, and a share of the
// block's alignment padding (wider stored operands force more vector
// slices before the mantissa settles — the nasasrb vs Pres_Poisson
// effect of §VIII-B), capped at the naive 127.
func SlicesForBlock(b *blocking.Block) int {
	s := 53 + int(math.Ceil(math.Log2(float64(b.Size)))) + int(0.35*float64(b.StoredBits()-54))
	if s > 127 {
		s = 127
	}
	if s < 54 {
		s = 54
	}
	return s
}

// blockOverheadCycles is the local-processor cost to start a cluster and
// service its completion interrupt (§VI-A1): vector-map read, buffer
// load initiation, ISR.
const blockOverheadCycles = 600

// SpMVTime returns the modeled latency of one accelerator SpMV: all
// resident clusters operate in parallel (one block each), so the crossbar
// phase is bounded by the slowest size class in use; the local processors
// orchestrate their clusters and chew the unblocked remainder
// concurrently; a cross-bank barrier closes the operation (§VI-A1).
func (m *Mapped) SpMVTime() float64 {
	cfg := m.Sys.Cfg
	var xbar float64
	for size, blocks := range m.Assigned {
		if len(blocks) == 0 {
			continue
		}
		worst := 0
		for _, b := range blocks {
			if s := SlicesForBlock(b); s > worst {
				worst = s
			}
		}
		if t := float64(worst) * cfg.ClusterOpLatency(size); t > xbar {
			xbar = t
		}
	}
	orchestration := float64(m.TotalBlocks()) / float64(cfg.Banks) * blockOverheadCycles / cfg.ClockHz
	local := cfg.LocalNNZTime(m.MaxBankUnblocked, m.UnblockedScatter) + orchestration
	t := xbar
	if local > t {
		t = local
	}
	return t + cfg.BarrierTime
}

// SpMVEnergy returns the modeled energy of one accelerator SpMV:
// crossbar + ADC dynamic energy over all resident blocks, local-processor
// energy for unblocked work, global-memory traffic for vector
// distribution and result collection, and static power over the SpMV
// latency.
func (m *Mapped) SpMVEnergy() float64 {
	cfg := m.Sys.Cfg
	var dyn float64
	for size, blocks := range m.Assigned {
		for _, b := range blocks {
			slices := float64(SlicesForBlock(b))
			// Early termination retires columns progressively; on average
			// a column converts for ~85% of the applied slices. Headstart
			// reduces ADC energy in proportion to unused resolution on
			// sparse columns.
			arr := cfg.ArrayEnergyPerOp(size) * float64(cfg.PlanesPerCluster)
			adcFull := cfg.ADCEnergyPerConversion(size) * float64(size) * float64(cfg.PlanesPerCluster)
			dyn += slices * (arr + 0.85*adcFull*headstartFactor(b))
		}
	}
	t := m.SpMVTime()
	local := cfg.LocalNNZTime(m.UnblockedNNZ, m.UnblockedScatter) * cfg.LocalPower
	vecBytes := float64(8 * (m.Plan.Rows + m.Plan.Cols))
	mem := vecBytes * cfg.GlobalMemEnergyPerByte
	return dyn + local + mem + cfg.StaticPower*t
}

// headstartFactor estimates the average fraction of full ADC resolution
// actually exercised given the block's column occupancy (§V-B2).
func headstartFactor(b *blocking.Block) float64 {
	res := math.Log2(float64(b.Size)) - 1
	if res < 1 {
		res = 1
	}
	density := float64(b.NNZ()) / (float64(b.Size) * float64(b.Size))
	expected := math.Log2(density*float64(b.Size)*0.5 + 2)
	f := expected / res
	if f > 1 {
		f = 1
	}
	if f < 0.2 {
		f = 0.2
	}
	return f
}

// DotTime models the distributed dot product of §VI-A2: each owner bank
// reduces its ≤1200 local elements, publishes one scalar, and every bank
// combines the published partials.
func (m *Mapped) DotTime() float64 {
	cfg := m.Sys.Cfg
	local := cfg.LocalVecTime(cfg.VectorSection) * 2 // multiply-add pass over two vectors
	combine := float64(8*m.OwnerBanks)/cfg.GlobalMemBytesPerSec + cfg.LocalVecTime(m.OwnerBanks)
	return local + combine + cfg.BarrierTime
}

// AxpyTime models the purely local AXPY of §VI-A3.
func (m *Mapped) AxpyTime() float64 {
	cfg := m.Sys.Cfg
	return cfg.LocalVecTime(cfg.VectorSection)*2 + cfg.BarrierTime
}

// vecEnergy is the energy of one vector kernel across the owner banks.
func (m *Mapped) vecEnergy(t float64) float64 {
	cfg := m.Sys.Cfg
	return float64(m.OwnerBanks)*cfg.LocalPower*t + cfg.StaticPower*t
}

// IterationTime returns the modeled per-iteration latency.
// CG: 1 SpMV, 2 dots, 3 AXPYs, 1 norm. BiCG-STAB: 2 SpMVs, 4 dots,
// 6 AXPYs, 1 norm (§VI).
func (m *Mapped) IterationTime(bicgstab bool) float64 {
	if bicgstab {
		return 2*m.SpMVTime() + 5*m.DotTime() + 6*m.AxpyTime()
	}
	return m.SpMVTime() + 3*m.DotTime() + 3*m.AxpyTime()
}

// IterationEnergy returns the modeled per-iteration energy.
func (m *Mapped) IterationEnergy(bicgstab bool) float64 {
	if bicgstab {
		return 2*m.SpMVEnergy() + 5*m.vecEnergy(m.DotTime()) + 6*m.vecEnergy(m.AxpyTime())
	}
	return m.SpMVEnergy() + 3*m.vecEnergy(m.DotTime()) + 3*m.vecEnergy(m.AxpyTime())
}

// WriteTime is the matrix programming time: each resident cluster
// programs its rows in sequence with all planes in parallel; clusters
// program concurrently, so the largest resident size gates completion
// (§VIII-D/E).
func (m *Mapped) WriteTime() float64 {
	cfg := m.Sys.Cfg
	var t float64
	for size, blocks := range m.Assigned {
		if len(blocks) == 0 {
			continue
		}
		if w := cfg.ClusterWriteTime(size); w > t {
			t = w
		}
	}
	return t
}

// WriteEnergy is the matrix programming energy (conservatively every
// cell of every resident cluster, §VIII-E).
func (m *Mapped) WriteEnergy() float64 {
	cfg := m.Sys.Cfg
	var e float64
	for size, blocks := range m.Assigned {
		e += float64(len(blocks)) * cfg.ClusterWriteEnergy(size)
	}
	return e
}

// CellWritesPerSolve counts cell writes for endurance analysis.
func (m *Mapped) CellWritesPerSolve() float64 {
	var cells float64
	for size, blocks := range m.Assigned {
		cells += float64(len(blocks)) * float64(size) * float64(size) * float64(m.Sys.Cfg.PlanesPerCluster)
	}
	return cells
}

// EnergyBreakdown decomposes one SpMV's energy into its components, the
// energy analog of the §VIII-C area composition.
type EnergyBreakdown struct {
	Array  float64 // crossbar arrays + drivers
	ADC    float64 // column conversions (after headstart/termination)
	Local  float64 // bank processors on the unblocked remainder
	Memory float64 // global-memory vector traffic
	Static float64 // background power over the SpMV latency
}

// Total sums the components.
func (e EnergyBreakdown) Total() float64 {
	return e.Array + e.ADC + e.Local + e.Memory + e.Static
}

// SpMVEnergyBreakdown splits SpMVEnergy into its components.
func (m *Mapped) SpMVEnergyBreakdown() EnergyBreakdown {
	cfg := m.Sys.Cfg
	var eb EnergyBreakdown
	for size, blocks := range m.Assigned {
		for _, b := range blocks {
			slices := float64(SlicesForBlock(b))
			eb.Array += slices * cfg.ArrayEnergyPerOp(size) * float64(cfg.PlanesPerCluster)
			adcFull := cfg.ADCEnergyPerConversion(size) * float64(size) * float64(cfg.PlanesPerCluster)
			eb.ADC += slices * 0.85 * adcFull * headstartFactor(b)
		}
	}
	eb.Local = cfg.LocalNNZTime(m.UnblockedNNZ, m.UnblockedScatter) * cfg.LocalPower
	eb.Memory = float64(8*(m.Plan.Rows+m.Plan.Cols)) * cfg.GlobalMemEnergyPerByte
	eb.Static = cfg.StaticPower * m.SpMVTime()
	return eb
}
