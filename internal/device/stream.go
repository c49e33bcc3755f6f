package device

import (
	"math"
	"math/rand"
)

// stream replays, draw for draw, the Gaussian stream of
// rand.New(rand.NewSource(seed)).NormFloat64() without calling through
// *rand.Rand.
//
// math/rand's source is an additive lagged-Fibonacci generator: once
// seeded, its 64-bit outputs satisfy out_n = out_{n−607} + out_{n−273}
// (mod 2^64). seed primes ring with the source's first 607 outputs; after
// that, refill advances the whole ring one lap of the recurrence at a
// time, so a raw draw is a load and an index bump instead of an
// interface call into the source. The source itself is kept only to
// prime the ring at NewArray and Reseed, without allocating a new one.
//
// Gaussians are sampled ahead into norms, in one tight loop (sample)
// that a conversion pass asks for before it starts, so the pass reads
// its draws from a slice instead of calling the sampler per draw. The
// array draws nothing but Gaussians, so sampling ahead changes no value,
// only when each is computed; seed discards what was sampled ahead of
// the old seed.
type stream struct {
	src  rand.Source64
	ring [rngLen]uint64 // ring[k] = out_{lap·607 + k}
	pos  uint           // next unread ring index; rngLen when the lap is spent

	norms []float64 // Gaussians sampled ahead
	npos  uint      // next unread norms index; len(norms) when spent
}

const (
	rngLen    = 607 // math/rand's rngLen: the long lag
	rngTap    = 273 // math/rand's rngTap: the short lag
	rngMask   = 1<<63 - 1
	normBatch = 512 // initial length of the sample-ahead buffer
)

// newStream returns a stream primed at seed.
func newStream(seed int64) stream {
	s := stream{src: rand.NewSource(seed).(rand.Source64), norms: make([]float64, normBatch)}
	s.prime()
	return s
}

// seed restarts the stream at seed, as rand.NewSource(seed) would.
func (s *stream) seed(seed int64) {
	s.src.Seed(seed)
	s.prime()
}

func (s *stream) prime() {
	for k := range s.ring {
		s.ring[k] = s.src.Uint64()
	}
	s.pos = 0
	s.npos = uint(len(s.norms))
}

// refill replaces the spent lap with the next 607 outputs. Taken in
// ascending k, the short-lag partner out_{n−273} of a new output sits
// in the old lap for k < 273 (at k+334, not yet overwritten) and in the
// new lap for k ≥ 273 (at k−273, already written).
func (s *stream) refill() {
	r := &s.ring
	for k := 0; k < rngTap; k++ {
		r[k] += r[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		r[k] += r[k-rngTap]
	}
	s.pos = 0
}

// uint64 returns the next raw source output.
func (s *stream) uint64() uint64 {
	if s.pos >= rngLen {
		s.refill()
	}
	u := s.ring[s.pos]
	s.pos++
	return u
}

// float64 is rand.(*Rand).Float64: Int63/2^63, redrawn when the
// division rounds up to 1.
func (s *stream) float64() float64 {
	for {
		if f := float64(int64(s.uint64()&rngMask)) / (1 << 63); f != 1 {
			return f
		}
	}
}

// ahead returns the unread Gaussians of the stream, in order, sampling
// more first when fewer than n remain. The caller reads a prefix and
// reports its length to consume.
func (s *stream) ahead(n int) []float64 {
	if len(s.norms)-int(s.npos) < n {
		s.sample(n)
	}
	return s.norms[s.npos:]
}

// consume marks the first k values returned by ahead as read.
func (s *stream) consume(k int) { s.npos += uint(k) }

// sample moves the unread Gaussians to the front of the buffer, grows it
// to at least 2n, and fills the rest. Each new value is
// rand.(*Rand).NormFloat64: the ziggurat fast path, taken by more than
// 97% of draws, is inline here; a spent lap and every other path go
// through normSlow, which restarts the draw from the same unread output.
// The 32-bit draw is rand's Uint32, uint32(Int63 >> 31), which equals
// uint32(out >> 31) because the Int63 mask only clears bit 63.
func (s *stream) sample(n int) {
	left := copy(s.norms, s.norms[s.npos:])
	if len(s.norms) < 2*n {
		grown := make([]float64, 2*n)
		copy(grown, s.norms[:left])
		s.norms = grown
	}
	s.npos = 0
	pos := s.pos
	buf := s.norms[left:]
	for k := range buf {
		if pos < rngLen {
			j := int32(s.ring[pos] >> 31)
			i := j & 0x7F
			x := float64(j) * float64(wn[i])
			if absInt32(j) < kn[i] {
				pos++
				buf[k] = x
				continue
			}
		}
		s.pos = pos
		buf[k] = s.normSlow()
		pos = s.pos
	}
	s.pos = pos
}

// normSlow is NormFloat64 in full: the ziggurat fast path, the base
// strip's tail (i == 0), and the wedge test, retried until a value is
// accepted.
func (s *stream) normSlow() float64 {
	for {
		j := int32(s.uint64() >> 31)
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(s.float64()) * (1.0 / rn)
				y := -math.Log(s.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(s.float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
