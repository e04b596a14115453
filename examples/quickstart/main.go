// Quickstart: create an SGX-style enclave on the server platform, run
// code inside it, attest it to a remote verifier, and persist sealed
// state — the canonical TEE workflow of Section 3.1.
package main

import (
	"fmt"
	"log"

	"github.com/intrust-sim/intrust"
)

func main() {
	// 1. A server-class platform with SGX.
	plat := intrust.NewServerPlatform()
	sgx, err := intrust.NewSGX(plat)
	if err != nil {
		log.Fatal(err)
	}

	// 2. An enclave holding a monotonic counter. The program reads the
	// counter from its (encrypted) data page, increments and stores it.
	prog := intrust.MustAssemble(`
        .org 0
entry:  lw   t0, 0(a0)     ; a0 = enclave data base
        addi t0, t0, 1
        sw   t0, 0(a0)
        mv   a0, t0         ; return the new value
        hlt
`)
	e, err := sgx.CreateEnclave(intrust.EnclaveConfig{
		Name: "counter", Program: prog, DataSize: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}
	enc := e.(interface {
		Call(args ...uint32) ([2]uint32, error)
		DataBase() uint32
	})
	for i := 0; i < 3; i++ {
		ret, err := enc.Call(enc.DataBase())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("enclave counter -> %d\n", ret[0])
	}

	// 3. Remote attestation: the verifier challenges with a nonce and
	// checks the Ed25519 quote against the platform's public key.
	verifier := intrust.NewVerifier()
	verifier.AllowMeasurement("counter", e.Measurement())
	nonce, err := verifier.Challenge()
	if err != nil {
		log.Fatal(err)
	}
	quoter := e.(interface {
		Quote(nonce []byte) *intrust.Quote
	})
	quote := quoter.Quote(nonce)
	if err := verifier.CheckQuote(sgx.QuotingPublic().Public(), quote); err != nil {
		log.Fatalf("attestation failed: %v", err)
	}
	fmt.Printf("remote attestation OK (measurement %s)\n", e.Measurement())

	// 4. Sealed storage: enclave state survives outside the TEE but is
	// bound to the enclave identity.
	blob, err := e.Seal([]byte("counter=3"))
	if err != nil {
		log.Fatal(err)
	}
	back, err := e.Unseal(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sealed %d bytes, unsealed %q\n", len(blob), back)

	// 5. The hardware guarantees: the OS, DMA devices and physical bus
	// probes all fail to read the enclave's plaintext.
	dataOff := enc.DataBase() - e.Base()
	fmt.Printf("OS access probe:   %v\n", intrust.ProbeOSAccess(sgx, e, dataOff, 3).Detail)
	fmt.Printf("DMA attack probe:  %v\n", intrust.ProbeDMA(sgx, e, dataOff, 3).Detail)
	fmt.Printf("bus snoop probe:   %v\n", intrust.ProbeBusSnoop(sgx, e, dataOff, 3).Detail)
}
