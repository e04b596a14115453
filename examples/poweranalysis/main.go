// Power-analysis walkthrough (Section 5): CPA recovers an AES key from a
// few hundred simulated power traces; first-order masking breaks the
// attack, hiding multiplies the trace budget, and an EM probe works like
// a noisier power probe.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/intrust-sim/intrust"
	"github.com/intrust-sim/intrust/internal/attack/physical"
)

func main() {
	key := []byte("power analysis k")
	rng := rand.New(rand.NewSource(7))

	// Unprotected AES: count the traces CPA needs.
	victim, err := physical.NewUnprotectedAES(key)
	if err != nil {
		log.Fatal(err)
	}
	n, ok := intrust.TracesToDisclosure(victim, intrust.PowerProbe(0.8, 1), key, 4096, rng)
	fmt.Printf("unprotected AES : CPA recovers the key after %d traces (success=%v)\n", n, ok)

	// Difference-of-means DPA on the same victim.
	traces := intrust.NewTraceArena(16)
	intrust.ExtendArena(traces, victim, intrust.PowerProbe(0.5, 2), 1500, rng)
	dpaKey := intrust.DPAKeyArena(traces)
	fmt.Printf("classic DPA     : %d/16 key bytes from 1500 traces\n",
		physical.CorrectBytes(dpaKey, key))

	// First-order masking: the countermeasure that breaks the link
	// between data and leakage.
	masked, err := physical.NewMaskedAESVictim(key, 99)
	if err != nil {
		log.Fatal(err)
	}
	nM, okM := intrust.TracesToDisclosure(masked, intrust.PowerProbe(0.8, 3), key, 4096, rng)
	fmt.Printf("1st-order masked: CPA fails within %d traces (success=%v)\n", nM, okM)

	// Hiding (random delays): raises the budget without removing leakage.
	hidden := intrust.PowerProbe(0.8, 4)
	hidden.JitterMax = 6
	nH, okH := intrust.TracesToDisclosure(victim, hidden, key, 4096, rng)
	fmt.Printf("hiding (jitter) : CPA needs %d traces (success=%v)\n", nH, okH)

	// EM emanations: same attack, weaker coupling.
	emTraces := intrust.NewTraceArena(16)
	intrust.ExtendArena(emTraces, victim, intrust.EMProbe(0.8, 5), 1024, rng)
	fmt.Printf("EM probe        : %d/16 key bytes from 1024 traces\n",
		physical.CorrectBytes(intrust.CPAKeyArena(emTraces), key))
}
