// CLKSCREW walkthrough (Section 5, [37]): the normal-world kernel abuses
// the software-exposed DVFS regulator to glitch the TrustZone secure
// world and steals its AES key with differential fault analysis — no
// access-control violation anywhere.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/intrust-sim/intrust/internal/attack/physical"
)

func main() {
	// Phase 0: a glitch-parameter campaign, as every fault attack starts.
	rng := rand.New(rand.NewSource(3))
	fmt.Println("glitch campaigns (fault sweet spots per mechanism):")
	for _, kind := range []physical.GlitchKind{
		physical.GlitchClock, physical.GlitchVoltage, physical.GlitchEM, physical.GlitchOptical,
	} {
		pts := physical.GlitchCampaign(kind, 21, 200, rng)
		s, faults := physical.BestGlitchStrength(pts)
		fmt.Printf("  %-8v sweet spot at strength %.2f (%d/200 exploitable faults)\n", kind, s, faults)
	}

	// Phase 1-3: the full CLKSCREW chain against TrustZone.
	fmt.Println("\nCLKSCREW against the TrustZone secure world:")
	res, err := physical.CLKSCREW(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  overclocked to %d MHz (per-instruction fault prob %.3f)\n",
		res.OverclockMHz, res.FaultProb)
	fmt.Printf("  %d secure-world invocations, %d usable faulty ciphertexts\n",
		res.Invocations, res.UsableFaults)
	fmt.Printf("  faults at nominal frequency: %d (regulator is the only lever)\n",
		res.NominalFaults)
	if res.Success {
		fmt.Printf("  SECURE-WORLD KEY RECOVERED: %x\n", res.RecoveredKey)
	} else {
		fmt.Println("  attack failed")
	}
}
