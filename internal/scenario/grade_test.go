package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/stats"
)

// exhaustiveWalk is seqTraces with every rung graded over all 16 key
// bytes: the reference the early-stopping grader must reproduce. It
// also returns the count of every sub-reference rung it graded.
func exhaustiveWalk(env *Env, plan *stats.Plan, sigma float64, keyFn func(*power.Arena) [16]byte) (got, traces int, sub []int, err error) {
	v, err := env.PowerAESVictim()
	if err != nil {
		return 0, 0, nil, err
	}
	probe := env.PowerProbe(sigma, 1)
	a := env.TraceArena()
	plan.Walk(func(n int) bool {
		physical.ExtendArena(a, v, probe, n-traces, env.RNG)
		traces = n
		got = physical.CorrectBytes(keyFn(a), VictimKey())
		if n < plan.Reference() {
			sub = append(sub, got)
		}
		return got >= keyThreshold
	})
	return got, traces, sub, nil
}

// TestSeqTracesMatchesExhaustiveWalk pins that grading key bytes only
// until the verdict is settled changes no adaptive dpa/cpa outcome: over
// 8 seeds under no defense, masked-aes and clock-jitter, each pass's
// rows, key_bytes and samples used equal those of a walk that grades all
// 16 bytes at every rung. The corpus must contain a sub-reference rung
// at exactly the threshold, where a miss budget one short would stop
// grading too early and walk past a recovery, and reference rungs short
// of it, whose count only a full grade gets right.
func TestSeqTracesMatchesExhaustiveWalk(t *testing.T) {
	kernels := []struct {
		scenario string
		sigma    float64
		ref      int
		policy   stats.Policy
		keyFn    func(*power.Arena) [16]byte
	}{
		// Ladders of 125 and 250 traces for DPA and of 12, 24 and 48
		// for CPA starve the unprotected victim enough that some seeds
		// end the pass short of the threshold (DPA) or recover exactly
		// the threshold below the reference (CPA).
		{"dpa", 0.5, 250, stats.Policy{MinBatch: 125}, physical.DPAKeyArena},
		{"cpa", 0.8, 48, stats.Policy{MinBatch: 12}, physical.CPAKeyArena},
	}
	atThreshold, shortAtRef := 0, 0
	for _, k := range kernels {
		s, ok := Default.Lookup(k.scenario)
		if !ok {
			t.Fatalf("scenario %s missing", k.scenario)
		}
		for _, dn := range []string{"none", "masked-aes", "clock-jitter"} {
			var defs []*defense.Spec
			if dn != "none" {
				d, ok := defense.Default.Lookup(dn)
				if !ok {
					t.Fatalf("defense %s missing", dn)
				}
				defs = []*defense.Spec{d}
			}
			for seed := int64(1); seed <= 8; seed++ {
				newEnv := func() *Env {
					env, err := NewEnvWithDefenses("trustzone", k.ref, seed, nil, defs)
					if err != nil {
						t.Fatal(err)
					}
					return env
				}
				plan := stats.NewPlan(k.policy, k.ref)
				out, err := s.RunSeq(newEnv(), plan)
				if err != nil {
					t.Fatal(err)
				}
				got, traces, sub, err := exhaustiveWalk(newEnv(), stats.NewPlan(k.policy, k.ref), k.sigma, k.keyFn)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range sub {
					if c == keyThreshold {
						atThreshold++
					}
				}
				if traces == k.ref && got > 0 && got < keyThreshold {
					shortAtRef++
				}
				want := Cell(k.scenario, "trustzone", fmt.Sprintf("%d/16 key bytes @ %d traces", got, traces), LeakIf(got >= keyThreshold))
				at := fmt.Sprintf("%s/%s seed %d", k.scenario, dn, seed)
				if !reflect.DeepEqual(out.Rows, want) {
					t.Errorf("%s: rows %v, exhaustive walk %v", at, out.Rows, want)
				}
				if out.Metrics["key_bytes"] != float64(got) {
					t.Errorf("%s: key_bytes %v, exhaustive walk %d", at, out.Metrics["key_bytes"], got)
				}
				if plan.Used() != traces {
					t.Errorf("%s: used %d samples, exhaustive walk %d", at, plan.Used(), traces)
				}
			}
		}
	}
	if atThreshold == 0 {
		t.Errorf("no sub-reference rung recovered exactly %d/16 bytes; the miss budget's boundary is untested", keyThreshold)
	}
	if shortAtRef == 0 {
		t.Errorf("no reference rung recovered 1..%d bytes; its full grade is untested", keyThreshold-1)
	}
}
