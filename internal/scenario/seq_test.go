package scenario

import (
	"reflect"
	"testing"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/stats"
)

// TestBatchEnvDerivation pins the sequential-sampling seed contract:
// pass 0 runs under the job seed itself (the fixed-engine identity),
// later passes derive deterministically from (job seed, pass index),
// and deriving never perturbs the parent environment.
func TestBatchEnvDerivation(t *testing.T) {
	env, err := NewEnvWithDefenses("sgx", 256, 12345, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b0 := env.Batch(0, 64)
	if b0.Seed != env.Seed {
		t.Errorf("pass 0 seed %d, want the job seed %d", b0.Seed, env.Seed)
	}
	if b0.Samples != 64 {
		t.Errorf("pass 0 samples %d, want 64", b0.Samples)
	}
	b1 := env.Batch(1, 64)
	if b1.Seed == env.Seed {
		t.Error("pass 1 reuses the job seed; passes would re-measure identical noise")
	}
	if again := env.Batch(1, 64); again.Seed != b1.Seed {
		t.Errorf("pass 1 seed not deterministic: %d vs %d", again.Seed, b1.Seed)
	}
	if env.Samples != 256 || env.Seed != 12345 {
		t.Errorf("Batch mutated the parent env: %+v", env)
	}
	if b0.Arch != env.Arch || b0.Class != env.Class || b0.DefenseLabel() != env.DefenseLabel() {
		t.Error("Batch dropped architecture/defense wiring")
	}
}

// TestSamplingProfiles pins the catalog's sampling taxonomy: every
// registered scenario is either one-shot (budget-independent) or
// sequential (cumulative checkpoint passes) — never both, never
// neither — so the adaptive engine always has an efficient path.
func TestSamplingProfiles(t *testing.T) {
	oneShot := map[string]bool{
		"spectre-v1": true, "spectre-btb": true, "ret2spec": true, "meltdown": true, "foreshadow": true,
		"dfa-piret-quisquater": true, "bellcore": true, "clkscrew": true,
		"quote-replay": true, "measure-toctou": true, "stale-tcb": true,
	}
	for _, s := range Default.All() {
		want := oneShot[s.Name()]
		if got := s.RunSeq == nil; got != want {
			t.Errorf("%s: one-shot = %v, want %v", s.Name(), got, want)
		}
		if (s.Run == nil) == (s.RunSeq == nil) {
			t.Errorf("%s: sets both or neither of Run and RunSeq; every scenario must be exactly one", s.Name())
		}
	}
}

// seqEnv builds a fresh environment for one (arch, defenses, samples)
// cell at a fixed seed.
func seqEnv(t *testing.T, arch string, samples int, defenses []*defense.Spec) *Env {
	t.Helper()
	env, err := NewEnvWithDefenses(arch, samples, 99, nil, defenses)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestMountSeqMatchesMountAtStoppingBudget is the verdict-preservation
// identity at the scenario layer: a sequential pass that stops at
// checkpoint n (early on a recovery, or at the reference budget by
// draining the ladder) must measure exactly what the plain Mount
// measures with Samples=n from the same seed — the cumulative extension
// consumes the RNG identically. Each sequential scenario is exercised on
// a broken cell (early stop) and, where a defense can hold it, on a
// mitigated cell (full drain).
func TestMountSeqMatchesMountAtStoppingBudget(t *testing.T) {
	ctAES, ok := defense.Default.Lookup("ct-aes")
	if !ok {
		t.Fatal("ct-aes defense missing")
	}
	masked, ok := defense.Default.Lookup("masked-aes")
	if !ok {
		t.Fatal("masked-aes defense missing")
	}
	for _, tc := range []struct {
		name, arch string
		defenses   []*defense.Spec
	}{
		{"flush+reload", "sgx", nil},
		{"flush+reload", "sgx", []*defense.Spec{ctAES}}, // mitigated: full drain
		{"prime+probe", "trustzone", nil},
		{"evict+time", "sgx", []*defense.Spec{ctAES}}, // mitigated at the 2048 floor
		{"tlb-channel", "sgx", nil},
		{"branch-shadow", "sanctum", nil},
		{"kocher-timing", "sgx", nil},
		{"dpa", "trustzone", []*defense.Spec{masked}}, // mitigated at the 1500 floor
		{"cpa", "trustzone", nil},
		{"cpa", "trustzone", []*defense.Spec{masked}},
	} {
		s, ok := Default.Lookup(tc.name)
		if !ok {
			t.Fatalf("scenario %s missing", tc.name)
		}
		ref := 64
		if ref < s.Floor {
			ref = s.Floor
		}
		plan := stats.NewPlan(stats.Policy{}, ref)
		seq, err := s.RunSeq(seqEnv(t, tc.arch, ref, tc.defenses), plan)
		if err != nil {
			t.Fatalf("%s/%s seq: %v", tc.name, tc.arch, err)
		}
		if plan.Used() == 0 {
			t.Fatalf("%s/%s: pass graded nothing", tc.name, tc.arch)
		}
		fixed, err := s.Mount(seqEnv(t, tc.arch, plan.Used(), tc.defenses))
		if err != nil {
			t.Fatalf("%s/%s fixed: %v", tc.name, tc.arch, err)
		}
		if !reflect.DeepEqual(seq.Rows, fixed.Rows) || seq.Verdict != fixed.Verdict {
			t.Errorf("%s/%s: sequential pass stopped at %d and measured %v (%q), fixed Mount at %d measured %v (%q)",
				tc.name, tc.arch, plan.Used(), seq.Rows, seq.Verdict, plan.Used(), fixed.Rows, fixed.Verdict)
		}
		if !plan.Broken() && plan.Used() != ref {
			t.Errorf("%s/%s: unrecovered pass stopped at %d, want the full reference %d",
				tc.name, tc.arch, plan.Used(), ref)
		}
		if plan.Broken() && VerdictClass(seq.Verdict) != ClassBroken {
			t.Errorf("%s/%s: plan stopped on a recovery but verdict is %q", tc.name, tc.arch, seq.Verdict)
		}
	}
}
