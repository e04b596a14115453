package power_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// The full DPA/CPA attacks of internal/attack/physical against the
// float64 reference (reference_test.go). This is an external test
// package so it can import physical, which imports power, while still
// seeing the test-only reference.

// dpaByte is the reference DPA guess loop: per key guess, Kocher's
// difference of means on bit 0 of the S-box output over the grouped
// float64 traces.
func dpaByte(ts *power.TraceSet, byteIdx int) (byte, float64) {
	cs := ts.ClassSums(func(i int) uint8 { return ts.Inputs[i][byteIdx] })
	bestK, bestD := byte(0), -1.0
	for k := 0; k < 256; k++ {
		d := cs.DifferenceOfMeans(func(v uint8) bool {
			return softcrypto.SBox(v^byte(k))&1 == 1
		})
		if d > bestD {
			bestK, bestD = byte(k), d
		}
	}
	return bestK, bestD
}

// cpaByte is the reference CPA guess loop: per key guess, the per-trace
// HW(SBox(pt^k)) hypothesis correlated against every point.
func cpaByte(ts *power.TraceSet, byteIdx int) (byte, float64) {
	bestK, bestC := byte(0), -1.0
	h := make([]float64, ts.Len())
	for k := 0; k < 256; k++ {
		for i := range h {
			h[i] = power.HW(uint32(softcrypto.SBox(ts.Inputs[i][byteIdx] ^ byte(k))))
		}
		if c := ts.MaxAbsPearson(h); c > bestC {
			bestK, bestC = byte(k), c
		}
	}
	return bestK, bestC
}

// TestArenaAttackEquivalence pins the full distinguisher stack: the
// arena DPA and CPA return the same recovered byte AND the same
// statistic bits as the reference guess loops on the same campaign.
func TestArenaAttackEquivalence(t *testing.T) {
	key := []byte("sixteen byte key")
	for _, tc := range []struct {
		name   string
		sigma  float64
		jitter int
	}{
		{"clean", 0.5, 0},
		{"jitter", 1.0, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := physical.NewUnprotectedAES(key)
			if err != nil {
				t.Fatal(err)
			}
			p := power.PowerProbe(tc.sigma, 7)
			p.JitterMax = tc.jitter
			a := power.NewArena(16)
			physical.ExtendArena(a, v, p, 300, rand.New(rand.NewSource(99)))
			ts := power.ReferenceSet(a)
			for _, byteIdx := range []int{0, 7, 15} {
				nk, nd := dpaByte(ts, byteIdx)
				ak, ad := physical.DPAByteArena(a, byteIdx)
				if nk != ak || math.Float64bits(nd) != math.Float64bits(ad) {
					t.Errorf("DPA byte %d: naive (%#02x, %v) != arena (%#02x, %v)",
						byteIdx, nk, nd, ak, ad)
				}
				nk, nc := cpaByte(ts, byteIdx)
				ak, ac := physical.CPAByteArena(a, byteIdx)
				if nk != ak || math.Float64bits(nc) != math.Float64bits(ac) {
					t.Errorf("CPA byte %d: naive (%#02x, %v) != arena (%#02x, %v)",
						byteIdx, nk, nc, ak, ac)
				}
			}
		})
	}
}
