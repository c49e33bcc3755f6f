package device

import (
	"math"
	"math/rand"
	"testing"
)

func TestFaultsValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		f    Faults
		ok   bool
	}{
		{"zero", Faults{}, true},
		{"typical", Faults{StuckAtHRS: 1e-4, StuckAtLRS: 1e-4, D2DSigma: 0.1, C2CSigma: 0.02, DriftNu: 0.1, DriftTau: 1e4}, true},
		{"bounds", Faults{StuckAtHRS: 0.5, StuckAtLRS: 0.5, D2DSigma: 2, C2CSigma: 1, DriftNu: 1}, true},
		{"hrs negative", Faults{StuckAtHRS: -0.1}, false},
		{"lrs above one", Faults{StuckAtLRS: 1.1}, false},
		{"stuck sum above one", Faults{StuckAtHRS: 0.6, StuckAtLRS: 0.6}, false},
		{"hrs NaN", Faults{StuckAtHRS: nan}, false},
		{"d2d NaN", Faults{D2DSigma: nan}, false},
		{"d2d inf", Faults{D2DSigma: math.Inf(1)}, false},
		{"d2d too large", Faults{D2DSigma: 2.5}, false},
		{"c2c negative", Faults{C2CSigma: -0.01}, false},
		{"c2c too large", Faults{C2CSigma: 1.5}, false},
		{"nu NaN", Faults{DriftNu: nan}, false},
		{"nu too large", Faults{DriftNu: 1.5}, false},
		{"tau NaN", Faults{DriftTau: nan}, false},
		{"tau inf", Faults{DriftTau: math.Inf(1)}, false},
	}
	for _, tc := range cases {
		if err := tc.f.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestFaultsEnabledStatic(t *testing.T) {
	if (Faults{}).Enabled() || (Faults{}).Static() {
		t.Fatal("zero Faults reports enabled")
	}
	if !(Faults{C2CSigma: 0.1}).Enabled() || (Faults{C2CSigma: 0.1}).Static() {
		t.Fatal("C2C-only model should be enabled but not static")
	}
	if !(Faults{DriftNu: 0.1}).Enabled() || (Faults{DriftNu: 0.1}).Static() {
		t.Fatal("drift-only model should be enabled but not static")
	}
	for _, f := range []Faults{{StuckAtHRS: 0.1}, {StuckAtLRS: 0.1}, {D2DSigma: 0.1}} {
		if !f.Enabled() || !f.Static() {
			t.Fatalf("%+v should be enabled and static", f)
		}
	}
	p := TaOx()
	p.ProgError = 0
	p.DynamicRange = math.Inf(1)
	if !p.Ideal() {
		t.Fatal("error-free infinite-range device should be ideal")
	}
	p.Faults.DriftNu = 0.1
	if p.Ideal() {
		t.Fatal("device with drift enabled reports ideal")
	}
}

func TestDriftFactor(t *testing.T) {
	f := Faults{DriftNu: 0.5, DriftTau: 10}
	if got := f.DriftFactor(0); got != 1 {
		t.Fatalf("DriftFactor(0) = %v, want exactly 1", got)
	}
	if got := f.DriftFactor(-5); got != 1 {
		t.Fatalf("DriftFactor(-5) = %v, want exactly 1", got)
	}
	if got := (Faults{}).DriftFactor(1e9); got != 1 {
		t.Fatalf("drift-free DriftFactor = %v, want exactly 1", got)
	}
	// Monotone nonincreasing in t, always within [0,1].
	prev := 1.0
	for _, tt := range []float64{0.1, 1, 10, 100, 1e4, 1e8} {
		d := f.DriftFactor(tt)
		if d < 0 || d > 1 {
			t.Fatalf("DriftFactor(%g) = %v outside [0,1]", tt, d)
		}
		if d > prev {
			t.Fatalf("DriftFactor not monotone: f(%g) = %v > previous %v", tt, d, prev)
		}
		prev = d
	}
	// Unset tau defaults to 1 s.
	a, b := Faults{DriftNu: 0.5}, Faults{DriftNu: 0.5, DriftTau: 1}
	if a.DriftFactor(3) != b.DriftFactor(3) {
		t.Fatalf("unset tau: %v, explicit tau=1: %v", a.DriftFactor(3), b.DriftFactor(3))
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := uint64(0); stream < 1000; stream++ {
		s := DeriveSeed(42, stream)
		if seen[s] {
			t.Fatalf("stream %d collides with an earlier stream (seed %d)", stream, s)
		}
		seen[s] = true
		if s2 := DeriveSeed(42, stream); s2 != s {
			t.Fatalf("DeriveSeed not deterministic: %d vs %d", s, s2)
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("distinct bases derive the same seed")
	}
}

// TestReseedRestartsStream pins the Reseed contract the batched multi-RHS
// path depends on: after Reseed(s) the array draws exactly the sequence a
// fresh NewArray(p, s) would.
func TestReseedRestartsStream(t *testing.T) {
	p := TaOx()
	p.ProgError = 0.05
	fresh := NewArray(p, 99)
	var want []int
	for i := 0; i < 32; i++ {
		want = append(want, fresh.PerturbCount(100, 20, 400))
	}
	a := NewArray(p, 1)
	for i := 0; i < 7; i++ {
		a.PerturbCount(50, 10, 100) // advance the stream
	}
	a.Reseed(99)
	for i := 0; i < 32; i++ {
		if got := a.PerturbCount(100, 20, 400); got != want[i] {
			t.Fatalf("draw %d after Reseed: %d, want %d", i, got, want[i])
		}
	}
}

// TestPerturbCountVarKnobsOffEquivalence pins the golden guarantee: with
// every fault knob at zero, PerturbCountVar(…, 1) consumes the same RNG
// draws and computes the same floats as the original two-source model,
// so pre-fault configurations reproduce bit-identical outputs.
func TestPerturbCountVarKnobsOffEquivalence(t *testing.T) {
	p := TaOx()
	p.ProgError = 0.03
	a, b := NewArray(p, 7), NewArray(p, 7)
	for i := 0; i < 256; i++ {
		on, onc, offc := i%37, i%11, 100+i%200
		if on < onc {
			onc = on
		}
		x, y := a.PerturbCount(on, onc, offc), b.PerturbCountVar(on, onc, offc, 1)
		if x != y {
			t.Fatalf("draw %d: PerturbCount %d vs PerturbCountVar(gain=1) %d", i, x, y)
		}
	}
}

func TestPerturbCountClampCounting(t *testing.T) {
	p := TaOx()
	a := NewArray(p, 3)
	if got := a.TakeClamps(); got != 0 {
		t.Fatalf("fresh array has %d clamps", got)
	}
	// A gain far above the physical rail forces the high clamp; the
	// observed count must saturate at (onCells+offCells)·(levels-1).
	if got := a.PerturbCountVar(100, 100, 0, 1e6); got != 100 {
		t.Fatalf("clamped high readout = %d, want 100", got)
	}
	// A gain driving the analog value negative forces the low clamp.
	if got := a.PerturbCountVar(100, 100, 0, -1e6); got != 0 {
		t.Fatalf("clamped low readout = %d, want 0", got)
	}
	if got := a.TakeClamps(); got != 2 {
		t.Fatalf("TakeClamps = %d, want 2", got)
	}
	if got := a.TakeClamps(); got != 0 {
		t.Fatalf("TakeClamps did not reset: %d", got)
	}
}

func TestSetTimeAppliesDrift(t *testing.T) {
	p := TaOx()
	p.LeakFluctuation = 0 // deterministic
	p.Faults = Faults{DriftNu: 1, DriftTau: 1}
	a := NewArray(p, 5)
	if got := a.PerturbCount(40, 40, 10); got != 40 {
		t.Fatalf("fresh array perturbs: %d, want 40", got)
	}
	a.SetTime(1) // drift factor (1+1)^-1 = 0.5
	if got := a.DriftFactor(); got != 0.5 {
		t.Fatalf("DriftFactor = %v, want 0.5", got)
	}
	if got := a.PerturbCount(40, 40, 10); got != 20 {
		t.Fatalf("drifted readout = %d, want 20", got)
	}
	a.SetTime(0)
	if got := a.PerturbCount(40, 40, 10); got != 40 {
		t.Fatalf("re-programmed readout = %d, want 40", got)
	}
}

// FuzzFaultParams drives Params.Validate (including the fault family)
// with arbitrary values: it must classify, never panic, and never accept
// a non-finite or out-of-range parameter.
func FuzzFaultParams(f *testing.F) {
	f.Add(1, 1500.0, 0.01, 1e-4, 1e-4, 0.1, 0.02, 0.1, 1e4)
	f.Add(2, 750.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1, 2.0, 0.5, 1.0, 0.0, 2.0, 1.0, 1.0, 1e9)
	f.Add(4, math.Inf(1), 0.3, math.NaN(), -1.0, math.Inf(1), math.NaN(), -0.5, math.NaN())
	f.Fuzz(func(t *testing.T, bits int, rng, prog, hrs, lrs, d2d, c2c, nu, tau float64) {
		p := TaOx()
		p.BitsPerCell = bits
		p.DynamicRange = rng
		p.ProgError = prog
		p.Faults = Faults{
			StuckAtHRS: hrs, StuckAtLRS: lrs,
			D2DSigma: d2d, C2CSigma: c2c,
			DriftNu: nu, DriftTau: tau,
		}
		err := p.Validate()
		if err != nil {
			return
		}
		// Accepted parameters must be safe to run: the drift factor stays
		// in [0,1] and sampling cannot produce out-of-range counts.
		for _, tt := range []float64{0, 1, 1e6} {
			if d := p.Faults.DriftFactor(tt); math.IsNaN(d) || d < 0 || d > 1 {
				t.Fatalf("accepted params give DriftFactor(%g) = %v", tt, d)
			}
		}
		a := NewArray(p, 1)
		a.SetTime(1e3)
		got := a.PerturbCountVar(10, 10, 100, 1)
		if got < 0 || got > 110*(p.Levels()-1) {
			t.Fatalf("accepted params give out-of-range count %d", got)
		}
	})
}

// unhoistedPerturb is PerturbCountVar as it read before the per-array
// constants moved into NewArray: every conversion recomputes the
// leakage unit, the programming-noise unit and the level count from the
// parameters, in the same expression order.
func unhoistedPerturb(p Params, rng *rand.Rand, drift float64, onSum, onCells, offCells int, gain float64) int {
	leak := 1.0 / p.DynamicRange
	unitLeak := leak * float64(p.Levels()-1)
	nominal := unitLeak * float64(offCells)
	shift := 0.0
	if p.LeakFluctuation > 0 && nominal > 0 {
		shift = nominal * p.LeakFluctuation * rng.NormFloat64()
	}
	on := float64(onSum)
	if gain != 1 {
		on *= gain
	}
	if drift != 1 {
		on *= drift
	}
	if p.Faults.C2CSigma > 0 && onSum != 0 {
		on *= 1 + p.Faults.C2CSigma*rng.NormFloat64()
	}
	analog := on + shift
	if p.ProgError > 0 && onCells > 0 {
		sigma := p.ProgError * float64(p.Levels()-1) * math.Sqrt(float64(onCells))
		analog += rng.NormFloat64() * sigma
	}
	q := int(math.RoundToEven(analog))
	return min(max(q, 0), (onCells+offCells)*(p.Levels()-1))
}

// TestPerturbCountVarMatchesUnhoisted pins the hoisted constants to the
// per-call arithmetic they replaced, draw for draw, across cell widths,
// dynamic ranges, noise levels, C2C noise, drift and D2D gains.
func TestPerturbCountVarMatchesUnhoisted(t *testing.T) {
	for bpc := 1; bpc <= 4; bpc++ {
		for _, dr := range []float64{7, 750, 1500, 3000} {
			p := TaOx()
			p.BitsPerCell = bpc
			p.DynamicRange = dr
			p.ProgError = 0.01 * float64(bpc)
			p.Faults = Faults{C2CSigma: 0.02, DriftNu: 0.1, DriftTau: 1e4}
			seed := int64(bpc)*1000 + int64(dr)
			a := NewArray(p, seed)
			a.SetTime(3e4)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 512; i++ {
				onc, offc := i%23, 40+i%300
				on := onc * (1 + i%(1<<bpc-1))
				gain := 1 + 0.05*float64(i%7-3)
				got := a.PerturbCountVar(on, onc, offc, gain)
				want := unhoistedPerturb(p, rng, a.DriftFactor(), on, onc, offc, gain)
				if got != want {
					t.Fatalf("bpc=%d range=%g draw %d: %d, unhoisted %d", bpc, dr, i, got, want)
				}
			}
		}
	}
}
