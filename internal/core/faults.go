package core

import (
	"math"
	"math/rand"

	"memsci/internal/device"
)

// applyStaticFaults samples the programming-time reliability defects of
// the device model onto the freshly programmed planes: stuck-at cell
// masks and lognormal device-to-device column gains. Each plane is a
// physically separate crossbar, so it gets its own sampler, seeded by a
// derivation of the cluster seed and the plane index — re-programming
// the same cluster (the refresh path) therefore pins exactly the same
// cells and draws exactly the same gains, the way real silicon keeps
// its defects across write cycles.
//
// Stuck faults are applied to the *stored* form, after CIC: inversion
// is a storage convention decided by the conversion pipeline, but a
// stuck cell holds its physical state regardless of what the programmer
// wanted written.
func (c *Cluster) applyStaticFaults() {
	f := c.cfg.Device.Faults
	levelMax := uint8(1<<c.planeBits - 1)
	for t, plane := range c.planes {
		if f.D2DSigma > 0 {
			rng := rand.New(rand.NewSource(device.DeriveSeed(c.cfg.Seed, streamD2D+uint64(t))))
			// Mean-one lognormal: exp(σ·N(0,1) − σ²/2), so enabling
			// variation does not shift the average column current.
			halfVar := f.D2DSigma * f.D2DSigma / 2
			for i := 0; i < plane.Outputs(); i++ {
				plane.SetColumnGain(i, math.Exp(f.D2DSigma*rng.NormFloat64()-halfVar))
			}
		}
		if f.StuckAtHRS > 0 || f.StuckAtLRS > 0 {
			rng := rand.New(rand.NewSource(device.DeriveSeed(c.cfg.Seed, streamStuck+uint64(t))))
			for i := 0; i < plane.Outputs(); i++ {
				for j := 0; j < plane.Inputs(); j++ {
					u := rng.Float64()
					switch {
					case u < f.StuckAtHRS:
						plane.ForceStoredLevel(i, j, 0)
						c.stuckCells++
					case u < f.StuckAtHRS+f.StuckAtLRS:
						plane.ForceStoredLevel(i, j, levelMax)
						c.stuckCells++
					}
				}
				// The stored-level sums follow the faulted array.
				c.storedOnes[i*c.nPlanes+t] = int32(plane.StoredOnes(i))
			}
		}
	}
}
