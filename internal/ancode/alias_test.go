package ancode

import (
	"math/big"
	"testing"
)

// TestSingleMisreadsAliasAtClusterWidth records how the corrector treats
// a single ±2^t misread at the shape of the Fig. 13 clusters: 65
// candidate bit positions (58 planes plus 7 summation bits) and the
// decoded range [0, (2^50 − 1)·popX] of a slice with popX active inputs,
// on a mid-range codeword. Because 2^25 ≡ −1 (mod 251), the error
// +2^t has the same syndrome as −2^(t−25) and −2^(t+25), and the decoder
// applies the lowest-position candidate that lands in range:
//
//   - t < 25: Ambiguous, decoded to the right value (the lowest candidate
//     is the error itself);
//   - 25 ≤ t < 60: Ambiguous, decoded to a wrong value (the alias
//     2^(t−25) is applied instead);
//   - the top positions: Corrected, once the lower alias no longer
//     leaves the decode in range — from t = 60 at popX 8, 63 at popX 48
//     and only t = 64 at popX 96.
//
// So a misread above bit 24 is miscorrected unless it sits at the very
// top of the operand.
func TestSingleMisreadsAliasAtClusterWidth(t *testing.T) {
	c := NewCorrector(65, 1)
	for _, tc := range []struct {
		popX           int64
		firstCorrected int
	}{{8, 60}, {48, 63}, {96, 64}} {
		hi := new(big.Int).Lsh(big.NewInt(1), 50)
		hi.Sub(hi, big.NewInt(1))
		hi.Mul(hi, big.NewInt(tc.popX))
		u := new(big.Int).Rsh(hi, 1)
		u.Add(u, big.NewInt(12345))
		cw := new(big.Int).Mul(u, big.NewInt(A))
		for bit := 0; bit < c.MaxBits; bit++ {
			for _, sign := range []int64{1, -1} {
				v := new(big.Int).Lsh(big.NewInt(sign), uint(bit))
				v.Add(v, cw)
				got, o := c.Correct(v, new(big.Int), hi)
				right := got.Cmp(u) == 0
				var ok bool
				switch {
				case bit < 25:
					ok = o == Ambiguous && right
				case bit < tc.firstCorrected:
					ok = o == Ambiguous && !right
				default:
					ok = o == Corrected && right
				}
				if !ok {
					t.Errorf("popX %d, error %+d·2^%d: outcome %v, right value %v", tc.popX, sign, bit, o, right)
				}
			}
		}
	}
}
