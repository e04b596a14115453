// Quickstart: create an SGX-style enclave on the server platform, run
// code inside it, attest it to a remote verifier, and persist sealed
// state — the canonical TEE workflow of Section 3.1.
package main

import (
	"fmt"
	"log"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
)

func main() {
	// 1. A server-class platform with SGX.
	plat := platform.NewServer()
	host, err := sgx.New(plat)
	if err != nil {
		log.Fatal(err)
	}

	// 2. An enclave holding a monotonic counter. The program reads the
	// counter from its (encrypted) data page, increments and stores it.
	prog := isa.MustAssemble(`
        .org 0
entry:  lw   t0, 0(a0)     ; a0 = enclave data base
        addi t0, t0, 1
        sw   t0, 0(a0)
        mv   a0, t0         ; return the new value
        hlt
`)
	e, err := host.CreateEnclave(tee.EnclaveConfig{
		Name: "counter", Program: prog, DataSize: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}
	enc := e.(*sgx.Enclave)
	for i := 0; i < 3; i++ {
		ret, err := enc.Call(enc.DataBase())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("enclave counter -> %d\n", ret[0])
	}

	// 3. Remote attestation: the verifier challenges with a nonce and
	// checks the Ed25519 quote against the platform's public key.
	verifier := attest.NewVerifier(attest.Policy{Freshness: true})
	verifier.Trust("sgx", host.QuotingPublic().Public())
	verifier.AllowMeasurement("counter", e.Measurement())
	nonce, err := verifier.Challenge()
	if err != nil {
		log.Fatal(err)
	}
	quote, err := enc.Quote(nonce)
	if err != nil {
		log.Fatal(err)
	}
	if err := verifier.CheckQuote(quote); err != nil {
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
	fmt.Printf("OS access probe:   %v\n", tee.ProbeOSAccess(host, e, dataOff, 3).Detail)
	fmt.Printf("DMA attack probe:  %v\n", tee.ProbeDMA(host, e, dataOff, 3).Detail)
	fmt.Printf("bus snoop probe:   %v\n", tee.ProbeBusSnoop(host, e, dataOff, 3).Detail)
}
