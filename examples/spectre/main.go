// Transient-execution walkthrough (Section 4.2): Spectre, Meltdown and
// Foreshadow run as real programs on the simulated CPU, with mitigations
// toggled. The finale reproduces the paper's "trust shattered" example:
// Foreshadow extracts SGX's attestation key through the L1 terminal
// fault, using the page-swap preload.
package main

import (
	"fmt"
	"log"

	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
)

func main() {
	secret := []byte("HW-TRUST-SECRET!")

	fmt.Println("== Spectre v1 (bounds-check bypass) ==")
	res, err := transient.SpectreV1(cpu.HighEndFeatures(), secret, false)
	must(err)
	fmt.Printf("speculative core : %s -> %q\n", res, printable(res.Recovered))
	res, err = transient.SpectreV1(cpu.HighEndFeatures(), secret, true)
	must(err)
	fmt.Printf("with fence       : %s\n", res)
	res, err = transient.SpectreV1(cpu.EmbeddedFeatures(), secret, false)
	must(err)
	fmt.Printf("in-order core    : %s (IoT devices lack speculation)\n", res)

	fmt.Println("\n== Spectre v2 (BTB injection) and ret2spec (RSB) ==")
	res, err = transient.SpectreBTB(cpu.HighEndFeatures(), secret, false)
	must(err)
	fmt.Printf("shared BTB       : %s\n", res)
	res, err = transient.SpectreBTB(cpu.HighEndFeatures(), secret, true)
	must(err)
	fmt.Printf("predictor flush  : %s\n", res)
	res, err = transient.Ret2spec(cpu.HighEndFeatures(), secret)
	must(err)
	fmt.Printf("poisoned RSB     : %s\n", res)

	fmt.Println("\n== Meltdown (kernel memory from user space) ==")
	res, err = transient.Meltdown(cpu.HighEndFeatures(), secret)
	must(err)
	fmt.Printf("vulnerable core  : %s -> %q\n", res, printable(res.Recovered))
	fixed := cpu.HighEndFeatures()
	fixed.FaultForwarding = false
	res, err = transient.Meltdown(fixed, secret)
	must(err)
	fmt.Printf("fixed silicon    : %s\n", res)

	fmt.Println("\n== Foreshadow (L1TF vs SGX) ==")
	plat := platform.NewServer()
	host, err := sgx.New(plat)
	must(err)
	res, err = transient.ForeshadowSGX(host, 16, false)
	must(err)
	fmt.Printf("quoting enclave  : %s (attestation key bytes!)\n", res)

	plat2 := platform.NewServer()
	host2, err := sgx.New(plat2)
	must(err)
	host2.MitigateL1TF = true
	res, err = transient.ForeshadowSGX(host2, 16, true)
	must(err)
	fmt.Printf("with L1 flush    : %s\n", res)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func printable(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 32 && c < 127 {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
