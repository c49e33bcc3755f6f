package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"memsci/internal/ancode"
	"memsci/internal/device"
	"memsci/internal/xbar"
)

// cellByCellPlanes programs blk the way NewCluster once did, sharing no
// code with the programming pass: a big.Int codeword A·(F + bias) per
// cell, one Set per (row, column, plane), then CIC when cic is set.
func cellByCellPlanes(blk *Block, B int, cic bool) []*xbar.Plane {
	codedBits := blk.Code.UnsignedBits() + ancode.CheckBits - 1
	nP := max((codedBits+B-1)/B, 1)
	planes := make([]*xbar.Plane, nP)
	for t := range planes {
		planes[t] = xbar.NewPlane(blk.M, blk.N, B)
	}
	u := new(big.Int)
	f := make([]*big.Int, blk.M*blk.N)
	for i := 0; i < blk.M; i++ {
		for j := range blk.N {
			f[i*blk.N+j] = new(big.Int)
		}
		for p := blk.RowPtr[i]; p < blk.RowPtr[i+1]; p++ {
			blk.F[p].Big(f[i*blk.N+int(blk.Cols[p])])
		}
	}
	for i := 0; i < blk.M; i++ {
		for j := 0; j < blk.N; j++ {
			u.Add(f[i*blk.N+j], blk.Code.Bias())
			u.Mul(u, big.NewInt(ancode.A))
			for t, p := range planes {
				var level uint8
				for b := 0; b < B; b++ {
					if u.Bit(t*B+b) == 1 {
						level |= 1 << b
					}
				}
				p.Set(i, j, level)
			}
		}
	}
	if cic && B == 1 {
		for _, p := range planes {
			p.ApplyCIC()
		}
	}
	return planes
}

// programBlock builds an m×n block whose row 0 is empty, row 1 fully
// dense, and the rest filled at random, with signed values over the
// given exponent spread, under quantization q.
func programBlock(t *testing.T, rng *rand.Rand, m, n, spread int, q Quant) *Block {
	t.Helper()
	vals := randBlockVals(rng, m, n, spread, 0.3)
	for j := 0; j < n; j++ {
		vals[0][j] = 0
		if m > 1 && vals[1][j] == 0 {
			vals[1][j] = -1.5
		}
	}
	var coefs []Coef
	for i := range vals {
		for j, v := range vals[i] {
			if v != 0 {
				coefs = append(coefs, Coef{Row: i, Col: j, Val: v})
			}
		}
	}
	blk, err := NewBlockQuant(m, n, coefs, MaxPadBits, q)
	if err != nil {
		t.Fatalf("NewBlockQuant: %v", err)
	}
	return blk
}

// programCases enumerates the programming shapes: N across the 64-bit
// word boundary and at the benchmark's 256, exponent spreads that reach
// every decode tier, quantized images, an all-zero block and half-full
// rows.
func programCases(t *testing.T) []*Block {
	rng := rand.New(rand.NewSource(4242))
	quants := []Quant{{}, {Mant: 8}, {Mant: 8, Window: 6}}
	var blks []*Block
	for k, n := range []int{63, 64, 65, 256} {
		for s, spread := range []int{3, 40, MaxPadBits} {
			blks = append(blks, programBlock(t, rng, 5+k, n, spread, quants[(k+s)%len(quants)]))
		}
	}
	zero, err := NewBlock(3, 65, nil, MaxPadBits)
	if err != nil {
		t.Fatal(err)
	}
	blks = append(blks, zero)
	// Rows with exactly ⌊N/2⌋ present cells of one value: the planes
	// where that value's bit is set and the absent codeword's is not
	// hold ⌊N/2⌋ ones, the sum at which CIC must not invert.
	for _, n := range []int{63, 64, 65} {
		var coefs []Coef
		for j := 0; j < n/2; j++ {
			coefs = append(coefs, Coef{Row: 0, Col: j, Val: 1.25}, Coef{Row: 1, Col: n - 1 - j, Val: -3})
		}
		half, err := NewBlock(2, n, coefs, MaxPadBits)
		if err != nil {
			t.Fatal(err)
		}
		blks = append(blks, half)
	}
	return blks
}

// TestKernelEquivalenceStoredOnes holds the stored-level sums that the
// programming pass derives from the codewords — the only programmed
// state an error-free cluster under the packed kernel keeps besides its
// codeword mirror — to the StoredOnes of planes programmed cell by cell,
// after CIC: 1-, 2- and 3-bit cells (a 3-bit level straddles the
// codeword's two words), CIC on and off, quantized blocks, empty, half
// full and fully dense rows, N ∈ {63, 64, 65, 256}.
func TestKernelEquivalenceStoredOnes(t *testing.T) {
	for bi, blk := range programCases(t) {
		for _, B := range []int{1, 2, 3} {
			for _, cic := range []bool{false, true} {
				cfg := DefaultClusterConfig()
				cfg.Device.BitsPerCell = B
				cfg.CIC = cic
				c, err := NewCluster(blk, cfg)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("block %d (%dx%d) B=%d CIC=%v", bi, blk.M, blk.N, B, cic)
				if c.planes != nil {
					t.Fatalf("%s: error-free cluster built %d planes", what, len(c.planes))
				}
				want := cellByCellPlanes(blk, B, cic)
				if len(want) != c.nPlanes {
					t.Fatalf("%s: %d planes, cell-by-cell programming has %d", what, c.nPlanes, len(want))
				}
				for t2, p := range want {
					for i := 0; i < blk.M; i++ {
						if got, w := int(c.storedOnes[i*c.nPlanes+t2]), p.StoredOnes(i); got != w {
							t.Fatalf("%s: row %d plane %d stored-level sum %d, cell by cell %d", what, i, t2, got, w)
						}
					}
				}
			}
		}
	}
}

// TestKernelEquivalenceWordFilledPlanes holds the planes the clusters
// that still need them build — filled with the absent-cell level a word
// at a time, then patched at the present cells — to planes programmed
// by a Set on every cell, after CIC and the same static-fault pass:
// stored levels, CIC flags, stored-level sums, raw column words and
// column gains, with and without stuck-at and D2D faults.
func TestKernelEquivalenceWordFilledPlanes(t *testing.T) {
	faults := []device.Faults{{}, {StuckAtHRS: 0.05, StuckAtLRS: 0.05, D2DSigma: 0.2}}
	for bi, blk := range programCases(t) {
		for _, B := range []int{1, 2, 3} {
			for fi, f := range faults {
				for _, kind := range []string{"reference", "inject"} {
					if kind != "inject" && fi > 0 {
						continue // static faults are sampled only under injection
					}
					cfg := DefaultClusterConfig()
					if kind == "inject" {
						cfg = faultCfg(f)
					}
					cfg.Device.BitsPerCell = B
					cfg.Seed = int64(300 + bi)
					cfg.CIC = bi%2 == 0
					c, err := newCluster(blk, cfg, kind == "reference")
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("block %d (%dx%d) B=%d %s faults=%+v", bi, blk.M, blk.N, B, kind, f)
					ref := &Cluster{cfg: cfg, block: blk, planeBits: B,
						planes: cellByCellPlanes(blk, B, cfg.CIC)}
					ref.nPlanes = len(ref.planes)
					ref.storedOnes = make([]int32, blk.M*ref.nPlanes)
					if cfg.InjectErrors && cfg.Device.Faults.Static() {
						ref.applyStaticFaults()
					}
					if c.stuckCells != ref.stuckCells {
						t.Fatalf("%s: %d stuck cells, cell by cell %d", what, c.stuckCells, ref.stuckCells)
					}
					comparePlanes(t, what, c, ref.planes)
				}
			}
		}
	}
}

// comparePlanes requires c's planes and stored-level sums to match the
// reference planes exactly.
func comparePlanes(t *testing.T, what string, c *Cluster, want []*xbar.Plane) {
	t.Helper()
	if len(c.planes) != len(want) {
		t.Fatalf("%s: %d planes, want %d", what, len(c.planes), len(want))
	}
	for pt, w := range want {
		g := c.planes[pt]
		for i := 0; i < w.Outputs(); i++ {
			if g.Inverted(i) != w.Inverted(i) {
				t.Fatalf("%s: plane %d row %d inverted %v, want %v", what, pt, i, g.Inverted(i), w.Inverted(i))
			}
			if g.StoredOnes(i) != w.StoredOnes(i) || int(c.storedOnes[i*c.nPlanes+pt]) != w.StoredOnes(i) {
				t.Fatalf("%s: plane %d row %d stored-level sum %d (cluster %d), want %d",
					what, pt, i, g.StoredOnes(i), c.storedOnes[i*c.nPlanes+pt], w.StoredOnes(i))
			}
			if g.ColumnGain(i) != w.ColumnGain(i) {
				t.Fatalf("%s: plane %d row %d gain %v, want %v", what, pt, i, g.ColumnGain(i), w.ColumnGain(i))
			}
			for b := 0; b < w.BitsPerCell(); b++ {
				if !slices.Equal(g.ColumnWords(b, i), w.ColumnWords(b, i)) {
					t.Fatalf("%s: plane %d row %d level bit %d words %x, want %x",
						what, pt, i, b, g.ColumnWords(b, i), w.ColumnWords(b, i))
				}
			}
			for j := 0; j < w.Inputs(); j++ {
				if g.StoredLevel(i, j) != w.StoredLevel(i, j) {
					t.Fatalf("%s: plane %d cell (%d,%d) stored %d, want %d",
						what, pt, i, j, g.StoredLevel(i, j), w.StoredLevel(i, j))
				}
			}
		}
	}
}

// TestKernelEquivalenceExactClustersHoldNoPlanes pins where planes and
// the slice walk's arena exist: an error-free cluster, its forks (and
// their forks) and a re-programming of the same block — what refresh
// does — build no bit plane, no per-row running sums, vector bitmaps,
// reduction scratch or AN corrector, and keep the exact kernel, while
// the reference and injected clusters keep their planes.
func TestKernelEquivalenceExactClustersHoldNoPlanes(t *testing.T) {
	narrow := DefaultClusterConfig()
	narrow.MatrixQuant = Quant{Mant: 4}
	for _, tc := range []struct {
		vals [][]float64
		cfg  ClusterConfig
	}{
		{[][]float64{{1, 1, 1, 1}}, narrow},
		{[][]float64{{1, 0, -3.5}, {0, 2, 0.25}}, DefaultClusterConfig()},
		{[][]float64{{1, ldexp64, 1, 1, 1, 1, 1, 1}}, DefaultClusterConfig()},
	} {
		c := mustClusterQuant(t, tc.vals, tc.cfg)
		if _, err := c.MulVec(make([]float64, len(tc.vals[0]))); err != nil {
			t.Fatal(err)
		}
		again := mustClusterQuant(t, tc.vals, tc.cfg)
		fork := c.Fork()
		for what, cl := range map[string]*Cluster{"origin": c, "fork": fork, "fork of fork": fork.Fork(), "re-programmed": again} {
			if cl.planes != nil {
				t.Errorf("%v %s: holds %d planes", tc.vals, what, len(cl.planes))
			}
			if got := cl.KernelName(); got != "exact" {
				t.Errorf("%v %s: kernel %q", tc.vals, what, got)
			}
			if ar := &cl.arena; ar.run != nil || ar.runBack != nil || ar.vs.slicesBuf != nil {
				t.Errorf("%v %s: holds the slice walk's running sums or bitmaps", tc.vals, what)
			}
			if cl.corr != nil || len(cl.redWords) != 0 {
				t.Errorf("%v %s: holds an AN corrector or reduction scratch", tc.vals, what)
			}
		}
	}
	vals := [][]float64{{1, 0, -3.5}, {0, 2, 0.25}}
	for _, kind := range []string{"reference", "inject"} {
		cfg := DefaultClusterConfig()
		cfg.InjectErrors = kind == "inject"
		c := buildCluster(t, vals, cfg, kind == "reference")
		if len(c.planes) != c.nPlanes || len(c.Fork().planes) != c.nPlanes {
			t.Errorf("%s cluster: %d planes (fork %d), want %d", kind, len(c.planes), len(c.Fork().planes), c.nPlanes)
		}
	}
}

// TestClusterForkKeepsStuckCells: a fork shares the stuck-at planes, so
// it must report the same pinned-cell count and share the stored-level
// sums the faults changed.
func TestClusterForkKeepsStuckCells(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	c := mustCluster(t, randBlockVals(rng, 8, 8, 10, 0.9), faultCfg(device.Faults{StuckAtHRS: 0.05, StuckAtLRS: 0.05}))
	if c.StuckCells() == 0 {
		t.Fatal("no cells pinned at 10% stuck rate")
	}
	for _, f := range []*Cluster{c.Fork(), c.Fork().Fork()} {
		if f.StuckCells() != c.StuckCells() {
			t.Errorf("fork reports %d stuck cells, origin %d", f.StuckCells(), c.StuckCells())
		}
		if !slices.Equal(f.storedOnes, c.storedOnes) {
			t.Error("fork dropped the stored-level sums")
		}
	}
}
