package core

import "fmt"

// This file implements the crossbar-activation scheduling policies of
// §IV-B ("Scheduling array activations", Figure 6). The schedule decides
// which (matrix bit slice, vector bit slice) pairs are computed at each
// time step. A pair's partial product has significance k+j; pairs below
// the early-termination cutoff may be skipped. The number of performed
// groups sets latency; the number of performed cells sets crossbar
// activation energy.

// Policy selects a scheduling family.
type Policy int

const (
	// Vertical applies one vector bit slice to every matrix bit slice per
	// step: minimum latency, maximum activations (Fig. 6 left).
	Vertical Policy = iota
	// Diagonal activates one anti-diagonal of equal significance per
	// step: minimum activations, maximum latency (Fig. 6 middle).
	Diagonal
	// Hybrid staggers bands of matrix bit slices by one vector slice per
	// band, balancing the two (Fig. 6 right; the evaluation's choice).
	Hybrid
)

func (p Policy) String() string {
	switch p {
	case Vertical:
		return "vertical"
	case Diagonal:
		return "diagonal"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Cell identifies one bit-sliced matrix-vector multiplication: matrix
// slice k combined with vector slice j (both indexed by significance,
// 0 = least significant).
type Cell struct {
	MatSlice, VecSlice int
}

// Significance returns the weight exponent of the cell's partial product.
func (c Cell) Significance() int { return c.MatSlice + c.VecSlice }

// Group is the set of cells activated simultaneously at one time step.
type Group struct {
	Step  int
	Cells []Cell
}

// ScheduleStats summarizes a planned schedule: Activations counts
// performed cells (energy proxy), Steps counts distinct time steps
// (latency proxy), Skipped counts cells omitted thanks to the cutoff.
type ScheduleStats struct {
	Policy      Policy
	Activations int
	Steps       int
	Groups      int
	Skipped     int
}

// PlanSchedule builds the activation schedule for a grid of matSlices ×
// vecSlices bit slices with an early-termination cutoff: partial products
// of significance below cutoff are not needed (cutoff 0 disables
// skipping). hybridBands configures the Hybrid policy's band count
// (Fig. 6 uses 2; more bands approach Diagonal).
func PlanSchedule(policy Policy, matSlices, vecSlices, cutoff, hybridBands int) ([]Group, ScheduleStats) {
	if matSlices <= 0 || vecSlices <= 0 {
		return nil, ScheduleStats{Policy: policy}
	}
	var groups []Group
	switch policy {
	case Vertical:
		// Step t applies vector slice j = vecSlices-1-t to all matrix
		// slices. A column group is performed iff its most significant
		// cell is needed.
		step := 0
		for j := vecSlices - 1; j >= 0; j-- {
			if (matSlices-1)+j < cutoff {
				continue
			}
			g := Group{Step: step}
			for k := 0; k < matSlices; k++ {
				g.Cells = append(g.Cells, Cell{MatSlice: k, VecSlice: j})
			}
			groups = append(groups, g)
			step++
		}
	case Diagonal:
		// Step t processes the anti-diagonal of significance
		// s = (matSlices-1 + vecSlices-1) - t; stop at the cutoff.
		step := 0
		for s := matSlices - 1 + vecSlices - 1; s >= cutoff; s-- {
			g := Group{Step: step}
			for k := 0; k < matSlices; k++ {
				j := s - k
				if j < 0 || j >= vecSlices {
					continue
				}
				g.Cells = append(g.Cells, Cell{MatSlice: k, VecSlice: j})
			}
			if len(g.Cells) > 0 {
				groups = append(groups, g)
				step++
			}
		}
	case Hybrid:
		groups = hybridSchedule(matSlices, vecSlices, cutoff, hybridBands)
	default:
		panic(fmt.Sprintf("core: unknown schedule policy %d", int(policy)))
	}
	return groups, summarize(policy, matSlices, vecSlices, cutoff, groups)
}

// hybridSchedule splits the matrix slices into bands (band 0 holding the
// most significant slices). Band b lags the previous band by one step:
// at step t it applies vector slice j = vecSlices-1-(t-b). A band group
// is skipped when even its most significant cell falls below the cutoff,
// which trims low-significance work without adding steps in the common
// case.
func hybridSchedule(matSlices, vecSlices, cutoff, bands int) []Group {
	if bands < 1 {
		bands = 1
	}
	if bands > matSlices {
		bands = matSlices
	}
	// Partition matrix slices into contiguous bands, most significant
	// first, sizes as even as possible.
	type band struct{ lo, hi int } // slice indices [lo, hi], hi most significant
	bs := make([]band, 0, bands)
	hi := matSlices - 1
	for b := 0; b < bands; b++ {
		size := matSlices / bands
		if b < matSlices%bands {
			size++
		}
		bs = append(bs, band{lo: hi - size + 1, hi: hi})
		hi -= size
	}
	byStep := map[int][]Cell{}
	for b, bd := range bs {
		for j := vecSlices - 1; j >= 0; j-- {
			if bd.hi+j < cutoff {
				continue
			}
			t := b + (vecSlices - 1 - j)
			for k := bd.lo; k <= bd.hi; k++ {
				byStep[t] = append(byStep[t], Cell{MatSlice: k, VecSlice: j})
			}
		}
	}
	steps := make([]int, 0, len(byStep))
	for t := range byStep {
		steps = append(steps, t)
	}
	sortInts(steps)
	groups := make([]Group, 0, len(steps))
	for i, t := range steps {
		groups = append(groups, Group{Step: i, Cells: byStep[t]})
	}
	return groups
}

func summarize(policy Policy, matSlices, vecSlices, cutoff int, groups []Group) ScheduleStats {
	st := ScheduleStats{Policy: policy, Groups: len(groups)}
	seen := 0
	maxStep := -1
	for _, g := range groups {
		st.Activations += len(g.Cells)
		seen += len(g.Cells)
		if g.Step > maxStep {
			maxStep = g.Step
		}
	}
	st.Steps = maxStep + 1
	st.Skipped = matSlices*vecSlices - seen
	return st
}

// Covered reports whether a schedule computes every cell with
// significance ≥ cutoff exactly once, the safety requirement for the
// truncated result to match the full computation (§IV-B).
func Covered(groups []Group, matSlices, vecSlices, cutoff int) bool {
	seen := make(map[Cell]int)
	for _, g := range groups {
		for _, c := range g.Cells {
			seen[c]++
			if seen[c] > 1 {
				return false
			}
		}
	}
	for k := 0; k < matSlices; k++ {
		for j := 0; j < vecSlices; j++ {
			if k+j >= cutoff && seen[Cell{k, j}] != 1 {
				return false
			}
		}
	}
	return true
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
