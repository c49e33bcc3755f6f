package xbar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memsci/internal/device"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(70)
	b.Set(0, true)
	b.Set(69, true)
	b.Set(64, true)
	if !b.Get(0) || !b.Get(64) || !b.Get(69) || b.Get(1) {
		t.Error("Set/Get wrong")
	}
	if b.PopCount() != 3 {
		t.Errorf("PopCount = %d", b.PopCount())
	}
	b.Set(64, false)
	if b.PopCount() != 2 {
		t.Errorf("PopCount after clear = %d", b.PopCount())
	}
}

func TestBitmapInvertPadding(t *testing.T) {
	b := NewBitmap(70)
	b.Set(3, true)
	b.Invert()
	if b.PopCount() != 69 {
		t.Errorf("inverted popcount = %d want 69", b.PopCount())
	}
	if b.Get(3) {
		t.Error("bit 3 should be clear after invert")
	}
	b.Invert()
	if b.PopCount() != 1 || !b.Get(3) {
		t.Error("double invert not identity")
	}
}

func TestAndPopCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := NewBitmap(n), NewBitmap(n)
		want := 0
		for i := 0; i < n; i++ {
			x, y := rng.Intn(2) == 1, rng.Intn(2) == 1
			a.Set(i, x)
			b.Set(i, y)
			if x && y {
				want++
			}
		}
		return a.AndPopCount(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapCloneClear(t *testing.T) {
	b := NewBitmap(10)
	b.Set(5, true)
	c := b.Clone()
	b.Clear()
	if b.PopCount() != 0 || c.PopCount() != 1 {
		t.Error("Clone/Clear broken")
	}
}

func TestPlaneSetGet(t *testing.T) {
	p := NewPlane(4, 8, 2)
	p.Set(1, 3, 3)
	p.Set(2, 7, 1)
	if p.Get(1, 3) != 3 || p.Get(2, 7) != 1 || p.Get(0, 0) != 0 {
		t.Error("Set/Get levels wrong")
	}
	p.Set(1, 3, 2) // overwrite
	if p.Get(1, 3) != 2 {
		t.Error("overwrite failed")
	}
	if p.StoredOnes(1) != 2 {
		t.Errorf("weight = %d", p.StoredOnes(1))
	}
}

func TestPlaneSetLevelTooBigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPlane(1, 1, 1).Set(0, 0, 2)
}

func TestColumnExactCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inputs := 1 + rng.Intn(150)
		bits := 1 + rng.Intn(2)
		p := NewPlane(1, inputs, bits)
		x := NewBitmap(inputs)
		want := 0
		for j := 0; j < inputs; j++ {
			lvl := uint8(rng.Intn(1 << bits))
			p.Set(0, j, lvl)
			applied := rng.Intn(2) == 1
			x.Set(j, applied)
			if applied {
				want += int(lvl)
			}
		}
		adc := ADC{Resolution: RequiredResolution(inputs, bits, false)}
		res := p.Column(0, x, x.PopCount(), nil, adc)
		return res.Count == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCICInvertsDenseColumns(t *testing.T) {
	p := NewPlane(2, 10, 1)
	for j := 0; j < 9; j++ {
		p.Set(0, j, 1) // 9/10 ones: must invert
	}
	p.Set(1, 0, 1) // sparse: untouched
	inv := p.ApplyCIC()
	if inv != 1 || !p.Inverted(0) || p.Inverted(1) {
		t.Fatalf("CIC inverted %d columns", inv)
	}
	if p.StoredOnes(0) != 1 {
		t.Errorf("stored ones after CIC = %d", p.StoredOnes(0))
	}
	// Readback must undo inversion.
	for j := 0; j < 9; j++ {
		if p.Get(0, j) != 1 {
			t.Fatalf("Get(0,%d) = %d after CIC", j, p.Get(0, j))
		}
	}
	if p.Get(0, 9) != 0 {
		t.Error("Get(0,9) should be 0")
	}
}

// CIC must not change computed counts.
func TestCICPreservesCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inputs := 1 + rng.Intn(100)
		p1 := NewPlane(1, inputs, 1)
		p2 := NewPlane(1, inputs, 1)
		x := NewBitmap(inputs)
		for j := 0; j < inputs; j++ {
			lvl := uint8(rng.Intn(2))
			p1.Set(0, j, lvl)
			p2.Set(0, j, lvl)
			x.Set(j, rng.Intn(3) > 0)
		}
		p2.ApplyCIC()
		adc := ADC{Resolution: 9}
		popX := x.PopCount()
		return p1.Column(0, x, popX, nil, adc).Count == p2.Column(0, x, popX, nil, adc).Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// After CIC, no single-bit column holds more than inputs/2 ones, which is
// what licenses the log2(N)−1 ADC resolution (§V-B2).
func TestCICBoundsColumnOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPlane(20, 64, 1)
	for i := 0; i < 20; i++ {
		for j := 0; j < 64; j++ {
			p.Set(i, j, uint8(rng.Intn(2)))
		}
	}
	p.ApplyCIC()
	if p.MaxColumnOnes() > 32 {
		t.Errorf("max ones after CIC = %d > 32", p.MaxColumnOnes())
	}
}

func TestRequiredResolution(t *testing.T) {
	cases := []struct {
		rows, bits int
		cic        bool
		want       int
	}{
		{512, 1, true, 9}, // paper: log2(512)−1 (§V-B2)
		{512, 1, false, 10},
		{64, 1, true, 6},
		{64, 1, false, 7},
		{64, 2, false, 8}, // max 64·3=192 → 8 bits
	}
	for _, c := range cases {
		if got := RequiredResolution(c.rows, c.bits, c.cic); got != c.want {
			t.Errorf("RequiredResolution(%d,%d,%v) = %d want %d",
				c.rows, c.bits, c.cic, got, c.want)
		}
	}
}

func TestADCHeadstart(t *testing.T) {
	full := ADC{Resolution: 9, Headstart: false}
	hs := ADC{Resolution: 9, Headstart: true}
	if full.ConversionBits(3) != 9 {
		t.Errorf("no-headstart bits = %d", full.ConversionBits(3))
	}
	if hs.ConversionBits(3) != 2 { // ⌈log2(4)⌉
		t.Errorf("headstart bits for max 3 = %d", hs.ConversionBits(3))
	}
	if hs.ConversionBits(0) != 1 {
		t.Errorf("headstart floor = %d", hs.ConversionBits(0))
	}
	if hs.ConversionBits(1<<20) != 9 {
		t.Errorf("headstart cap = %d", hs.ConversionBits(1<<20))
	}
}

func TestColumnWithIdealDevice(t *testing.T) {
	p := NewPlane(1, 32, 1)
	for j := 0; j < 16; j++ {
		p.Set(0, j, 1)
	}
	x := NewBitmap(32)
	for j := 0; j < 32; j += 2 {
		x.Set(j, true)
	}
	dev := device.TaOx()
	dev.LeakFluctuation = 0
	arr := device.NewArray(dev, 1)
	adc := ADC{Resolution: 6}
	got := p.Column(0, x, x.PopCount(), arr, adc)
	want := p.Column(0, x, x.PopCount(), nil, adc)
	if got.Count != want.Count {
		t.Errorf("ideal device changed count: %d vs %d", got.Count, want.Count)
	}
}

func TestBitmapResetReusesStorage(t *testing.T) {
	b := NewBitmap(130)
	for i := 0; i < 130; i += 3 {
		b.Set(i, true)
	}
	words := &b.words[0]
	b.Reset(100) // shrink: same storage, all clear
	if b.Len() != 100 || b.PopCount() != 0 {
		t.Fatalf("after Reset(100): len=%d pop=%d", b.Len(), b.PopCount())
	}
	if &b.words[0] != words {
		t.Error("shrinking Reset reallocated word storage")
	}
	b.Set(99, true)
	b.Reset(700) // grow past capacity: fresh storage, still clear
	if b.Len() != 700 || b.PopCount() != 0 {
		t.Fatalf("after Reset(700): len=%d pop=%d", b.Len(), b.PopCount())
	}
	allocs := testing.AllocsPerRun(50, func() { b.Reset(650) })
	if allocs != 0 {
		t.Errorf("within-capacity Reset allocated %.1f/run", allocs)
	}
}

func TestBitmapResetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(-1) did not panic")
		}
	}()
	NewBitmap(4).Reset(-1)
}

func TestBitmapCopyFrom(t *testing.T) {
	src := NewBitmap(90)
	for _, i := range []int{0, 13, 63, 64, 89} {
		src.Set(i, true)
	}
	dst := NewBitmap(200)
	dst.Set(150, true)
	dst.CopyFrom(src)
	if dst.Len() != 90 || dst.PopCount() != src.PopCount() {
		t.Fatalf("CopyFrom: len=%d pop=%d", dst.Len(), dst.PopCount())
	}
	for i := 0; i < 90; i++ {
		if dst.Get(i) != src.Get(i) {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	dst.Set(1, true)
	if src.Get(1) {
		t.Error("CopyFrom aliased source storage")
	}
}

// TestPlaneFillMatchesSet holds the word fill to a Set on every cell:
// same levels, stored-level sums and raw words (padding bits clear),
// at every cell width and across the 64-bit word boundary, including a
// fill over a plane that already holds other levels.
func TestPlaneFillMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, bpc := range []int{1, 2, 3, 4} {
		for _, inputs := range []int{1, 63, 64, 65, 130} {
			for level := 0; level < 1<<bpc; level++ {
				got, want := NewPlane(3, inputs, bpc), NewPlane(3, inputs, bpc)
				for i := 0; i < 3; i++ {
					for j := 0; j < inputs; j++ {
						got.Set(i, j, uint8(rng.Intn(1<<bpc)))
						want.Set(i, j, uint8(level))
					}
				}
				got.Fill(uint8(level))
				for i := 0; i < 3; i++ {
					if got.StoredOnes(i) != want.StoredOnes(i) {
						t.Fatalf("bpc=%d inputs=%d level=%d: column %d sum %d, want %d",
							bpc, inputs, level, i, got.StoredOnes(i), want.StoredOnes(i))
					}
					for b := 0; b < bpc; b++ {
						g, w := got.ColumnWords(b, i), want.ColumnWords(b, i)
						for k := range w {
							if g[k] != w[k] {
								t.Fatalf("bpc=%d inputs=%d level=%d: column %d bit %d word %d = %x, want %x",
									bpc, inputs, level, i, b, k, g[k], w[k])
							}
						}
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fill with an out-of-range level did not panic")
		}
	}()
	NewPlane(1, 8, 1).Fill(2)
}
