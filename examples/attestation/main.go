// Embedded remote attestation walkthrough (Section 3.3): SMART's ROM-based
// dynamic root of trust detects firmware tampering on an IoT device, shows
// its real-time cost (interrupts held off), and TyTAN's chunked
// attestation bounds the latency.
package main

import (
	"fmt"
	"log"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/smart"
	"github.com/intrust-sim/intrust/internal/tee/tytan"
)

func main() {
	// A SMART-enabled microcontroller.
	dev := platform.NewEmbedded()
	sm, err := smart.New(dev)
	if err != nil {
		log.Fatal(err)
	}
	// Application firmware at 0x8000; it re-enables interrupts and halts.
	fw := isa.MustAssemble(`
        .org 0x8000
app:    li   t0, 1
        csrw status, t0
        hlt
`)
	if err := dev.Mem.LoadProgram(fw); err != nil {
		log.Fatal(err)
	}
	const fwBase, fwLen = 0x8000, 16

	// The verifier (cloud backend) challenges the device. A sensor
	// interrupt arrives right before attestation: SMART holds it off for
	// the whole run (its real-time cost).
	verifier := attest.NewVerifier(attest.Policy{Freshness: true})
	nonce, _ := verifier.Challenge()
	dev.Core(0).SetCSR(0x011 /* tvec */, 0x9000)
	if err := dev.Mem.LoadProgram(isa.MustAssemble(".org 0x9000\nhlt")); err != nil {
		log.Fatal(err)
	}
	dev.Core(0).RaiseIRQ()
	res, err := sm.Attest(fwBase, fwLen, nonce, fwBase)
	if err != nil {
		log.Fatal(err)
	}
	verifier.AllowMeasurement("firmware-v1", res.Report.Measurement)
	if err := verifier.CheckReport(sm.Key(), res.Report); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean firmware attested (measurement %s)\n", res.Report.Measurement)
	fmt.Printf("  interrupts held pending for %d instructions (SMART's RT cost)\n",
		res.InstructionsWithIRQPending)

	// Malware patches the firmware; the next attestation exposes it.
	if err := dev.Mem.WriteRaw(fwBase+4, []byte{0x90}); err != nil {
		log.Fatal(err)
	}
	nonce2, _ := verifier.Challenge()
	res2, err := sm.Attest(fwBase, fwLen, nonce2, fwBase)
	if err != nil {
		log.Fatal(err)
	}
	if err := verifier.CheckReport(sm.Key(), res2.Report); err != nil {
		fmt.Printf("tampered firmware rejected: %v\n", err)
	} else {
		log.Fatal("tampered firmware slipped through!")
	}

	// TyTAN on a fresh device: same attestation, bounded latency.
	ty, err := tytan.New(platform.NewEmbedded())
	if err != nil {
		log.Fatal(err)
	}
	prog := isa.MustAssemble(".org 0\nhlt")
	tr, err := ty.LoadSignedTrustlet(tee.EnclaveConfig{Name: "rt-app", Program: prog, DataSize: 64}, ty.SignImage(prog.Segments[0].Data))
	if err != nil {
		log.Fatal(err)
	}
	rt, err := ty.AttestRT(tr, tr.CodeBase(), 2048, nonce)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TyTAN real-time attestation: %d chunks, worst-case uninterruptible span %d bytes\n",
		rt.Chunks, rt.WorstCaseLatencyBytes)
}
