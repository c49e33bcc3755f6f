package accel

import (
	"math/rand"
	"reflect"
	"testing"

	"memsci/internal/core"
)

// Golden determinism gate for the mixed-precision inner-engine presets:
// with the same seed, a reduced-slice or block-exponent engine must be
// bit-identical across its origin, a fork, and a from-scratch rebuild —
// the property the refinement driver's reproducibility (and the engine
// cache's correctness) rests on.
func TestQuantEngineGoldenEquivalence(t *testing.T) {
	presets := []struct {
		name string
		cfg  core.ClusterConfig
	}{
		{"reduced8", core.ReducedSliceConfig(8)},
		{"blockexp8w12", core.BlockExpConfig(8, 12)},
	}
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			m, plan := smallSystem(t, 256)
			cfg := p.cfg
			cfg.InjectErrors = true // error model on: the RNG streams must stay aligned too

			origin, err := NewEngine(plan, cfg, 31)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := NewEngine(plan, cfg, 31)
			if err != nil {
				t.Fatal(err)
			}
			fork := origin.Fork()

			rng := rand.New(rand.NewSource(17))
			x := make([]float64, m.Cols())
			yo := make([]float64, m.Rows())
			yr := make([]float64, m.Rows())
			yf := make([]float64, m.Rows())
			for round := 0; round < 3; round++ {
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				origin.Apply(yo, x)
				rebuilt.Apply(yr, x)
				fork.Apply(yf, x)
				for i := range yo {
					if yo[i] != yr[i] || yo[i] != yf[i] {
						t.Fatalf("round %d row %d: origin %x rebuilt %x fork %x",
							round, i, yo[i], yr[i], yf[i])
					}
				}
			}
			if o, r := origin.Stats(), rebuilt.Stats(); !reflect.DeepEqual(o, r) {
				t.Errorf("stats diverge:\norigin  %+v\nrebuilt %+v", o, r)
			}
		})
	}
}

// A reduced-slice engine must beat the full-precision engine on ADC
// conversions for the same work — the entire point of the preset.
func TestQuantEngineFewerConversions(t *testing.T) {
	m, plan := smallSystem(t, 192)
	full, err := NewEngine(plan, core.DefaultClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	red, err := NewEngine(plan, core.ReducedSliceConfig(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, m.Cols())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, m.Rows())
	full.Apply(y, x)
	red.Apply(y, x)
	fc, rc := full.Stats().Conversions, red.Stats().Conversions
	if rc*2 > fc {
		t.Fatalf("reduced-slice conversions %d not at least 2x below full %d", rc, fc)
	}
	t.Logf("conversions: full %d, reduced %d (%.2fx)", fc, rc, float64(rc)/float64(fc))
}
