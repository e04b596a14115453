package scenario

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/intrust-sim/intrust/internal/platform"
)

// catalogNames is the contract of the shipped catalog: these names are
// stable public API (CLI selectors, experiment names, EXPERIMENTS.md
// anchors) — renaming one is a breaking change and re-rolls its cells'
// RNG seeds.
var catalogNames = []string{
	// cachesca (§4.1)
	"branch-shadow", "evict+time", "flush+reload", "prime+probe", "tlb-channel",
	// transient (§4.2)
	"foreshadow", "meltdown", "ret2spec", "spectre-btb", "spectre-v1",
	// physical (§5)
	"bellcore", "clkscrew", "cpa", "dfa-piret-quisquater", "dpa", "kocher-timing",
	// attestation (§3)
	"measure-toctou", "quote-replay", "stale-tcb",
}

func TestCatalogNamesStable(t *testing.T) {
	if got := Default.Names(); !reflect.DeepEqual(got, catalogNames) {
		t.Errorf("catalog names = %v, want %v", got, catalogNames)
	}
	if Default.Len() < 15 {
		t.Errorf("catalog holds %d scenarios, want >= 15", Default.Len())
	}
}

func TestCatalogMetadataComplete(t *testing.T) {
	for _, s := range Default.All() {
		if s.Section == "" || s.Summary == "" {
			t.Errorf("%s: missing catalog metadata (section=%q summary=%q)", s.Name(), s.Section, s.Summary)
		}
		if !slices.Contains(FamilyOrder, s.Family()) {
			t.Errorf("%s: unknown family %q", s.Name(), s.Family())
		}
	}
}

// TestApplicabilityMatchesPaper pins each scenario's architecture axis to
// the paper's table rows: cache side channels need shared
// microarchitectural state (absent on embedded), predictor/MMU-dependent
// transient variants need their hardware structure, Foreshadow is
// SGX-specific, CLKSCREW needs the mobile DVFS surface, and the classical
// physical suite applies everywhere.
func TestApplicabilityMatchesPaper(t *testing.T) {
	embedded := []string{"smart", "sancus", "trustlite", "tytan"}
	highEnd := []string{"sgx", "sanctum", "trustzone", "sanctuary"}
	applicableSet := func(name string) map[string]bool {
		t.Helper()
		s, ok := Default.Lookup(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		out := map[string]bool{}
		for _, arch := range platform.Architectures {
			ok, reason := s.Applicable(arch)
			if !ok && reason == "" {
				t.Errorf("%s/%s: not applicable but no reason given", name, arch)
			}
			out[arch] = ok
		}
		return out
	}
	// All five cache channels and the structure-dependent transient
	// variants: high-end yes, embedded no.
	for _, name := range []string{"flush+reload", "prime+probe", "evict+time", "tlb-channel",
		"branch-shadow", "spectre-btb", "ret2spec", "meltdown"} {
		set := applicableSet(name)
		for _, arch := range highEnd {
			if !set[arch] {
				t.Errorf("%s not applicable on %s", name, arch)
			}
		}
		for _, arch := range embedded {
			if set[arch] {
				t.Errorf("%s applicable on embedded %s", name, arch)
			}
		}
	}
	// Spectre v1 is mounted everywhere — its failure on in-order cores is
	// itself a paper observation.
	for arch, ok := range applicableSet("spectre-v1") {
		if !ok {
			t.Errorf("spectre-v1 not applicable on %s", arch)
		}
	}
	// Foreshadow: SGX only.
	for arch, ok := range applicableSet("foreshadow") {
		if ok != (arch == "sgx") {
			t.Errorf("foreshadow applicable=%v on %s", ok, arch)
		}
	}
	// CLKSCREW: the mobile DVFS surface.
	for arch, ok := range applicableSet("clkscrew") {
		if ok != (arch == "trustzone" || arch == "sanctuary") {
			t.Errorf("clkscrew applicable=%v on %s", ok, arch)
		}
	}
	// The rest of the physical suite applies to every class.
	for _, name := range []string{"kocher-timing", "dpa", "cpa", "dfa-piret-quisquater", "bellcore"} {
		for arch, ok := range applicableSet(name) {
			if !ok {
				t.Errorf("%s not applicable on %s", name, arch)
			}
		}
	}
	// Unknown architectures are never applicable.
	for _, s := range Default.All() {
		if ok, _ := s.Applicable("enigma"); ok {
			t.Errorf("%s applicable on unknown architecture", s.Name())
		}
	}
}

func TestNewEnvValidatesAndDefaults(t *testing.T) {
	if _, err := NewEnv("enigma", 10, 1, nil); err == nil {
		t.Error("unknown architecture accepted")
	}
	env, err := NewEnv("sanctum", 0, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Class != platform.ClassServer || env.Samples != 256 || env.RNG == nil {
		t.Errorf("env defaults wrong: %+v", env)
	}
	if _, err := env.SGX(); err == nil {
		t.Error("SGX instance handed out for sanctum")
	}
}

// TestMountSmoke mounts one cheap scenario per family end to end through
// the Env, verifying the uniform API carries a real measurement.
func TestMountSmoke(t *testing.T) {
	mount := func(name, arch string, samples int) Outcome {
		t.Helper()
		s, ok := Default.Lookup(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		env, err := NewEnv(arch, samples, 7, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Mount(env)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, arch, err)
		}
		if len(out.Rows) == 0 || out.Verdict == "" {
			t.Fatalf("%s/%s: empty outcome %+v", name, arch, out)
		}
		return out
	}
	if out := mount("flush+reload", "sgx", 64); out.Verdict != "ATTACK SUCCEEDS" {
		t.Errorf("flush+reload on undefended SGX = %q", out.Verdict)
	}
	if out := mount("spectre-v1", "sancus", 8); out.Verdict != "blocked" {
		t.Errorf("spectre-v1 on the in-order core = %q", out.Verdict)
	}
	if out := mount("dfa-piret-quisquater", "sancus", 8); out.Verdict != "KEY RECOVERED" {
		t.Errorf("DFA on unprotected AES = %q", out.Verdict)
	}
}
