package device

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the raw outputs rand.Rand takes from its source,
// which tells which path of NormFloat64 each draw took: the ziggurat's
// fast path reads one output, the tail and the wedge test read more.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// TestStreamMatchesMathRand pins the in-package replay to math/rand's
// NormFloat64, bit for bit, over 10^7 draws: ten seeds (zero, negative
// and beyond int32 among them), each restarted mid-stream by a reseed
// to a second seed, read in chunks of 1 to 1,500 draws so the
// sample-ahead buffer is compacted and grown. The reference side's raw
// draw counts prove that the tail and the wedge paths were taken.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 9001, -7_777_777, 1 << 40, math.MaxInt64, math.MinInt64, 0x5eed_cafe}
	const perSeed = 1_000_000
	chunk := rand.New(rand.NewSource(3))
	var draws, tail, wedge int
	for si, seed := range seeds {
		s := newStream(seed)
		src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(src)
		reseedAt := perSeed / 3
		for done := 0; done < perSeed; {
			if done >= reseedAt {
				// Restart both sides mid-stream, with draws still
				// sampled ahead on this side.
				next := seed ^ int64(si+1)*0x9e3779b9
				s.seed(next)
				src.Seed(next)
				reseedAt = math.MaxInt
			}
			n := min(1+chunk.Intn(1500), perSeed-done)
			g := s.ahead(n)
			for k := 0; k < n; k++ {
				before := src.n
				want := ref.NormFloat64()
				if math.Float64bits(g[k]) != math.Float64bits(want) {
					t.Fatalf("seed %d draw %d: stream %v, math/rand %v", seed, done+k, g[k], want)
				}
				switch {
				case math.Abs(want) >= rn:
					tail++
				case src.n-before > 1:
					wedge++
				}
			}
			s.consume(n)
			done += n
		}
		draws += perSeed
	}
	if draws < 10_000_000 {
		t.Fatalf("compared %d draws, want at least 10^7", draws)
	}
	if tail == 0 || wedge == 0 {
		t.Fatalf("slow paths not exercised: %d tail draws, %d wedge draws", tail, wedge)
	}
	t.Logf("%d draws: %d from the tail, %d through the wedge test", draws, tail, wedge)
}
