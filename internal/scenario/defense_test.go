package scenario

import (
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/platform"
)

// mountWith mounts one scenario on one architecture under an explicit
// defense set and returns the outcome.
func mountWith(t *testing.T, name, arch string, samples int, defenses ...string) Outcome {
	t.Helper()
	s, ok := Default.Lookup(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	var ds []*defense.Spec
	for _, dn := range defenses {
		d, ok := defense.Default.Lookup(dn)
		if !ok {
			t.Fatalf("defense %s not registered", dn)
		}
		ds = append(ds, d)
	}
	env, err := NewEnvWithDefenses(arch, samples, 7, rand.New(rand.NewSource(7)), ds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Mount(env)
	if err != nil {
		t.Fatalf("%s/%s/%v: %v", name, arch, defenses, err)
	}
	return out
}

// TestDefenseFlipsMatchPaper is the defense-efficacy matrix, measured:
// for each cataloged mitigation, the attack it is designed to stop is
// broken without it and mitigated with it — including the issue's
// headline cell, flush+reload flipping broken→mitigated when
// way-partitioning is applied to SGX.
func TestDefenseFlipsMatchPaper(t *testing.T) {
	cases := []struct {
		scenario, arch, defense string
		samples                 int
	}{
		{"flush+reload", "sgx", "way-partition", 64},
		{"prime+probe", "sgx", "way-partition", 64},
		{"prime+probe", "trustzone", "cache-coloring", 64},
		{"flush+reload", "sgx", "flush-on-switch", 64},
		{"prime+probe", "sgx", "flush-on-switch", 64},
		{"tlb-channel", "sgx", "tlb-partition", 64},
		{"flush+reload", "sgx", "ct-aes", 64},
		{"prime+probe", "sgx", "ct-aes", 64},
		{"evict+time", "sgx", "ct-aes", 2048},
		{"spectre-v1", "sgx", "spec-barrier", 8},
		{"prime+probe", "sgx", "randomized-index", 64},
		{"spectre-btb", "sgx", "btb-flush", 8},
		{"meltdown", "sgx", "no-fault-forwarding", 8},
		{"foreshadow", "sgx", "l1tf-flush", 8},
		{"branch-shadow", "sgx", "btb-flush", 64},
		{"dpa", "sancus", "masked-aes", 1500},
		{"cpa", "sancus", "masked-aes", 256},
		{"bellcore", "sgx", "crt-check", 8},
		{"clkscrew", "trustzone", "clock-jitter", 8},
		{"quote-replay", "sgx", "quote-freshness", 8},
		{"quote-replay", "tytan", "quote-freshness", 8},
		{"measure-toctou", "sanctum", "measurement-lock", 8},
		{"stale-tcb", "trustzone", "tcb-refresh", 8},
		{"stale-tcb", "sancus", "tcb-refresh", 8},
	}
	// Layered mitigations compose: adding masked-aes on top of ct-aes
	// must not revert the cache victim to the leaky T-table AES (the two
	// knobs protect different observation channels).
	if out := mountWith(t, "flush+reload", "sgx", 64, "ct-aes", "masked-aes"); VerdictClass(out.Verdict) != ClassMitigated {
		t.Errorf("flush+reload under ct-aes+masked-aes = %q, want mitigated (combo must not weaken ct-aes)", out.Verdict)
	}
	if out := mountWith(t, "dpa", "sgx", 1500, "ct-aes", "masked-aes"); VerdictClass(out.Verdict) != ClassMitigated {
		t.Errorf("dpa under ct-aes+masked-aes = %q, want mitigated (combo must keep masking)", out.Verdict)
	}
	for _, tc := range cases {
		undefended := mountWith(t, tc.scenario, tc.arch, tc.samples)
		if got := VerdictClass(undefended.Verdict); got != ClassBroken {
			t.Errorf("%s/%s undefended = %q (class %q), want broken", tc.scenario, tc.arch, undefended.Verdict, got)
		}
		defended := mountWith(t, tc.scenario, tc.arch, tc.samples, tc.defense)
		if got := VerdictClass(defended.Verdict); got != ClassMitigated {
			t.Errorf("%s/%s under %s = %q (class %q), want mitigated", tc.scenario, tc.arch, tc.defense, defended.Verdict, got)
		}
	}
}

// TestDefenseDoesNotOverreach pins the "pains" half of the argument: a
// mitigation leaves attacks outside its Blocks list broken. Way
// partitioning does not help against the TLB channel, a speculation
// barrier does not stop BTB cross-training, and masking does not stop
// fault attacks.
func TestDefenseDoesNotOverreach(t *testing.T) {
	cases := []struct {
		scenario, arch, defense string
		samples                 int
	}{
		{"tlb-channel", "sgx", "way-partition", 64},
		{"branch-shadow", "sgx", "way-partition", 64},
		{"spectre-btb", "sgx", "spec-barrier", 8},
		{"dfa-piret-quisquater", "sancus", "masked-aes", 8},
		{"flush+reload", "sgx", "cache-coloring", 64},
		{"quote-replay", "sgx", "tcb-refresh", 8},
		{"stale-tcb", "sgx", "quote-freshness", 8},
		{"measure-toctou", "sgx", "quote-freshness", 8},
	}
	for _, tc := range cases {
		out := mountWith(t, tc.scenario, tc.arch, tc.samples, tc.defense)
		if got := VerdictClass(out.Verdict); got != ClassBroken {
			t.Errorf("%s/%s under %s = %q (class %q), want broken (outside the defense's coverage)",
				tc.scenario, tc.arch, tc.defense, out.Verdict, got)
		}
	}
}

// TestStockEnvMatchesRegistry pins the bugfix for the old hard-coded
// defenseName switch: the stock environment's label derives from the
// defense records' Stock fields, so Sanctum reports way-partition,
// Sanctuary reports cache-coloring, and everything else reports none.
func TestStockEnvMatchesRegistry(t *testing.T) {
	want := map[string]string{
		"sgx": "none", "sanctum": "way-partition",
		"trustzone": "none", "sanctuary": "cache-coloring",
		"smart": "none", "sancus": "none", "trustlite": "none", "tytan": "none",
	}
	for _, arch := range platform.Architectures {
		env, err := NewEnv(arch, 8, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := env.DefenseLabel(); got != want[arch] {
			t.Errorf("stock defense label on %s = %q, want %q", arch, got, want[arch])
		}
	}
	// The stock wiring still reproduces the paper's §4.1 matrix: the
	// Sanctum partition holds against Prime+Probe, the undefended SGX
	// falls to Flush+Reload.
	if out := mountWith(t, "prime+probe", "sanctum", 64, "way-partition"); VerdictClass(out.Verdict) != ClassMitigated {
		t.Errorf("prime+probe vs Sanctum's stock partition = %q, want mitigated", out.Verdict)
	}
}

// TestNewEnvRejectsInapplicableDefense checks the environment refuses a
// defense with no substrate on the architecture instead of silently
// mounting a no-op.
func TestNewEnvRejectsInapplicableDefense(t *testing.T) {
	d, ok := defense.Default.Lookup("way-partition")
	if !ok {
		t.Fatal("way-partition not registered")
	}
	if _, err := NewEnvWithDefenses("sancus", 8, 1, nil, []*defense.Spec{d}); err == nil {
		t.Error("way-partition accepted on the cacheless embedded platform")
	}
}
