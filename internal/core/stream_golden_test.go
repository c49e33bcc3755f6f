package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"memsci/internal/device"
)

// injectedStreamCase is one scenario of the injected-stream golden: a
// device model, a cell width, CIC on or off, a retention age, and the
// way the cluster is driven.
type injectedStreamCase struct {
	name  string
	bits  int
	cic   bool
	dev   func(*device.Params)
	age   float64
	drive string // "serial", "batch" (per-RHS reseeds) or "fork"
	want  uint64
}

// TestKernelEquivalenceInjectedStream pins the injected error stream
// draw for draw. Each scenario programs one operator with error
// injection, drives it through MulVec (serially, through ApplyBatch's
// per-RHS reseed sequence, or through forks), and hashes every output's
// bits together with the final Conversions, SaturationClamps and AN
// outcome counts. The golden hashes were recorded with the device
// sampler drawing from math/rand's *rand.Rand, so any change to the
// stream, to the order of the draws or to the float arithmetic around
// them fails here, on both the lane kernel and the big.Int reference.
// The kernel-vs-reference suites cannot see such a change: both paths
// share the sampler.
func TestKernelEquivalenceInjectedStream(t *testing.T) {
	prog := func(sigma float64) func(*device.Params) {
		return func(p *device.Params) { p.ProgError = sigma }
	}
	faults := func(p *device.Params) {
		p.ProgError = 0.01
		p.Faults = device.Faults{StuckAtHRS: 2e-3, StuckAtLRS: 2e-3, D2DSigma: 0.1,
			C2CSigma: 0.03, DriftNu: 0.05, DriftTau: 10}
	}
	lowRange := func(p *device.Params) {
		p.ProgError = 0.05
		p.DynamicRange = 60
	}
	cases := []injectedStreamCase{
		{name: "b1/cic/prog3", bits: 1, cic: true, dev: prog(0.03), drive: "serial", want: 0x7af7823359d6ff4a},
		{name: "b1/nocic/lowrange", bits: 1, cic: false, dev: lowRange, drive: "serial", want: 0xa8aed7846b613e56},
		{name: "b2/prog3", bits: 2, cic: true, dev: prog(0.03), drive: "serial", want: 0xd956bef9c192ece2},
		{name: "b1/cic/faults", bits: 1, cic: true, dev: faults, age: 1e4, drive: "serial", want: 0x2117cbe16ba4fc4f},
		{name: "b2/faults", bits: 2, dev: faults, age: 1e4, drive: "serial", want: 0x42739912eb6cb6e4},
		{name: "b1/cic/batch", bits: 1, cic: true, dev: prog(0.03), drive: "batch", want: 0xddb81ef7f95e111d},
		{name: "b2/batch", bits: 2, dev: lowRange, drive: "batch", want: 0xa99c519ab1d93a42},
		{name: "b1/nocic/fork", bits: 1, dev: faults, age: 100, drive: "fork", want: 0x9afbf5605a6ca82d},
		{name: "b2/fork", bits: 2, dev: prog(0.03), drive: "fork", want: 0xb2ed9ccad95227c1},
	}
	var fired, clamped bool
	for _, tc := range cases {
		for _, reference := range []bool{false, true} {
			got, st := runInjectedStream(t, tc, reference)
			if got != tc.want {
				t.Errorf("%s (reference %v): stream hash %#x, want %#x", tc.name, reference, got, tc.want)
			}
			fired = fired || st.AN.Detected() > 0
			clamped = clamped || st.SaturationClamps > 0
		}
	}
	if !fired || !clamped {
		t.Errorf("no scenario fired an AN detection (%v) or a clamp (%v): the golden cannot see the error path", fired, clamped)
	}
}

// runInjectedStream drives one scenario, on the lane kernel or the
// reference, and returns its hash and the merged statistics of every
// cluster it ran.
func runInjectedStream(t *testing.T, tc injectedStreamCase, reference bool) (uint64, ComputeStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	const n = 40
	vals := randBlockVals(rng, n, n, 3, 0.35)
	xs := make([][]float64, 6)
	for i := range xs {
		xs[i] = randVec(rng, n, 4, 0.9)
	}
	cfg := DefaultClusterConfig()
	cfg.InjectErrors = true
	cfg.CIC = tc.cic
	cfg.Seed = 9001
	cfg.Device.BitsPerCell = tc.bits
	tc.dev(&cfg.Device)
	c := buildCluster(t, vals, cfg, reference)
	c.SetAge(tc.age)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for k := range buf {
			buf[k] = byte(v >> (8 * k))
		}
		h.Write(buf[:])
	}
	mulVec := func(c *Cluster, x []float64) {
		y, err := c.MulVec(x)
		if err != nil {
			t.Fatalf("%s: MulVec: %v", tc.name, err)
		}
		for _, v := range y {
			put(math.Float64bits(v))
		}
	}
	ran := []*Cluster{c}
	switch tc.drive {
	case "serial":
		for _, x := range xs {
			mulVec(c, x)
		}
	case "batch":
		// ApplyBatch's sequence: reseed per RHS, then park the stream at
		// the canonical (epoch, len) position and run one bare Apply.
		for epoch := uint64(0); epoch < 2; epoch++ {
			for k, x := range xs[:3] {
				c.ReseedErrors(epoch, uint64(k))
				mulVec(c, x)
			}
			c.ReseedErrors(epoch, 3)
			mulVec(c, xs[3+epoch])
		}
	case "fork":
		mulVec(c, xs[0])
		f1, f2 := c.Fork(), c.Fork()
		ran = append(ran, f1, f2)
		for _, x := range xs[1:] {
			mulVec(f1, x)
			mulVec(f2, x)
			mulVec(c, x)
		}
	default:
		t.Fatalf("unknown drive %q", tc.drive)
	}
	var st ComputeStats
	for _, r := range ran {
		st.Merge(r.Stats())
	}
	put(st.Conversions)
	put(st.SaturationClamps)
	put(st.AN.OK)
	put(st.AN.Corrected)
	put(st.AN.Ambiguous)
	put(st.AN.Uncorrectable)
	return h.Sum64(), st
}
