package intrust

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/sanctuary"
	"github.com/intrust-sim/intrust/internal/tee/sanctum"
	"github.com/intrust-sim/intrust/internal/tee/sancus"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
	"github.com/intrust-sim/intrust/internal/tee/smart"
	"github.com/intrust-sim/intrust/internal/tee/trustlite"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
	"github.com/intrust-sim/intrust/internal/tee/tytan"
)

// These tests drive the internal packages end to end, the way the
// examples do: one workflow per test, across package boundaries.

func TestFacadeEnclaveWorkflow(t *testing.T) {
	plat := platform.NewServer()
	s, err := sgx.New(plat)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Assemble(".org 0\nmv a0, a1\nhlt")
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateEnclave(tee.EnclaveConfig{Name: "facade", Program: prog, DataSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := e.Call(0, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 1234 {
		t.Fatalf("enclave echo = %d", ret[0])
	}
	v := attest.NewVerifier(attest.Policy{Freshness: true})
	v.AllowMeasurement("facade", e.Measurement())
	nonce, _ := v.Challenge()
	r, err := e.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckReport(s.ReportKey(), r); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("facade state"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Unseal(blob)
	if err != nil || string(out) != "facade state" {
		t.Fatalf("unseal: %q %v", out, err)
	}
}

func TestFacadeAllArchitecturesConstruct(t *testing.T) {
	if _, err := sgx.New(platform.NewServer()); err != nil {
		t.Errorf("SGX: %v", err)
	}
	if _, err := sanctum.New(platform.NewServer()); err != nil {
		t.Errorf("Sanctum: %v", err)
	}
	tz, err := trustzone.New(platform.NewMobile())
	if err != nil {
		t.Fatalf("TrustZone: %v", err)
	}
	if _, err := sanctuary.New(tz); err != nil {
		t.Errorf("Sanctuary: %v", err)
	}
	if _, err := smart.New(platform.NewEmbedded()); err != nil {
		t.Errorf("SMART: %v", err)
	}
	if _, err := sancus.New(platform.NewEmbedded()); err != nil {
		t.Errorf("Sancus: %v", err)
	}
	if _, err := trustlite.New(platform.NewEmbedded()); err != nil {
		t.Errorf("TrustLite: %v", err)
	}
	if _, err := tytan.New(platform.NewEmbedded()); err != nil {
		t.Errorf("TyTAN: %v", err)
	}
}

func TestFacadeSpectreQuick(t *testing.T) {
	secret := []byte("FACADE")
	res, err := transient.SpectreV1(cpu.HighEndFeatures(), secret, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != len(secret) {
		t.Fatalf("spectre on the high-end core: %d/%d", res.Correct, len(secret))
	}
}

func TestFacadeFigure1Renders(t *testing.T) {
	f, err := core.Figure1(true)
	if err != nil {
		t.Fatal(err)
	}
	out := f.Render()
	for _, want := range []string{"remote attacks", "microarchitectural", "energy budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 render missing %q", want)
		}
	}
}

func TestFacadeAttestLifecycle(t *testing.T) {
	svc := attestsvc.NewService(platform.FuseFromSeed(0))
	q, err := svc.Quote("sgx", "none", 1, []byte{0xaa}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attest.DecodeQuote(wire); err != nil {
		t.Fatalf("decode canonical quote: %v", err)
	}
	if vd := svc.Verify(wire, []byte{0xaa}); !vd.OK {
		t.Fatalf("clean verify: %+v", vd)
	}
	// A broken none-defense cell revokes the baseline TCB.
	svc.SetRevocations(attestsvc.Revoke([]attestsvc.Cell{
		{Scenario: "flush+reload", Arch: "sgx", Defense: "none", Class: "broken"}}))
	if vd := svc.Verify(wire, []byte{0xaa}); vd.OK || vd.Code != "tcb-revoked" {
		t.Fatalf("post-revocation verify = %+v, want tcb-revoked", vd)
	}
}

var updateExamples = flag.Bool("update", false, "rewrite examples/*/testdata/stdout.golden from the examples' current output")

// TestExamplesStdout pins every walkthrough under examples/ byte for
// byte: each one's stdout must equal its checked-in
// testdata/stdout.golden. The examples replay deterministically (every
// TEE key derives from a platform fuse, every attack from a fixed
// seed), so any diff is a behaviour change in a package they call.
// Refresh with `go test . -run TestExamplesStdout -update`.
func TestExamplesStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			golden := filepath.Join("examples", name, "testdata", "stdout.golden")
			if *updateExamples {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (create its testdata/ and run with -update)", err)
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s\n--- got:\n%s--- want:\n%s", golden, got, want)
			}
		})
	}
}
