package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/stats"
)

// TestDeterminismMatrix is the scheduler-independence pin for the full
// none+stock grid: every registered scenario on every architecture under
// the undefended and stock defense layers, run through the ADAPTIVE
// engine (so the comparison covers samples-used and confidence, the
// fields most sensitive to scheduling), must be byte-identical at every
// worker count. This is the guarantee that lets the sweep earn
// multi-core scaling without ever re-validating verdicts: which worker
// claims a job, and with what Scratch store left behind by its previous
// jobs, moves work around, never results.
func TestDeterminismMatrix(t *testing.T) {
	exps, err := SweepExperimentsWith(nil, nil, []string{"none", "stock"},
		SweepOptions{Samples: 32, Adaptive: &stats.Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) []engine.Result {
		results, err := engine.New(parallel).Run(context.Background(), exps)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	ref := stripTiming(run(1))

	// The reference must actually carry the adaptive fields the matrix
	// claims to compare.
	sampled := 0
	for i := range ref {
		if ref[i].Sampling != nil {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("no cell carries a sampling decision; the matrix would compare nothing")
	}

	parallels := []int{2, 8}
	if testing.Short() || raceDetectorEnabled {
		// The race detector (and -short) keeps only the widest pool,
		// where the most workers contend for the claim counter.
		parallels = []int{8}
	}
	for _, par := range parallels {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			got := stripTiming(run(par))
			if reflect.DeepEqual(ref, got) {
				return
			}
			for i := range ref {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Fatalf("cell %s diverged from the parallel=1 reference:\nref: %+v\ngot: %+v",
						ref[i].Name, ref[i], got[i])
				}
			}
			t.Fatal("results differ from reference")
		})
	}
}
