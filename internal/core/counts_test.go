package core

import (
	"context"
	"testing"

	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/stats"
)

// TestCanonicalGridCounts is the machine-independent cost gate on the
// grid BenchmarkSweepDefenseAxis times: the none+stock layers of every
// scenario on every architecture at 64 samples. Wall time depends on
// the machine, but the cell count and the samples each mode spends do
// not, so they are pinned exactly. A change that makes the adaptive
// engine stop later, escalate more, or the fixed grid grow moves one of
// these numbers and fails here on every runner.
func TestCanonicalGridCounts(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		opt                     SweepOptions
		cells                   int
		samples                 int64
		earlyStopped, escalated int
	}{
		{"fixed", SweepOptions{Samples: 64}, 304, 60992, 0, 0},
		{"adaptive", SweepOptions{Samples: 64, Adaptive: &stats.Policy{}}, 304, 23713, 75, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exps, err := SweepExperimentsWith(nil, nil, []string{"none", "stock"}, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			results, err := engine.New(0).Run(context.Background(), exps)
			if err != nil {
				t.Fatal(err)
			}
			s := engine.Summarize(results, 0)
			if len(results) != tc.cells || s.Failed != 0 {
				t.Errorf("%d cells (%d failed), want %d and 0", len(results), s.Failed, tc.cells)
			}
			if s.TotalSamples != tc.samples {
				t.Errorf("total samples = %d, want %d", s.TotalSamples, tc.samples)
			}
			if s.EarlyStopped != tc.earlyStopped || s.Escalated != tc.escalated {
				t.Errorf("early stopped %d, escalated %d; want %d and %d",
					s.EarlyStopped, s.Escalated, tc.earlyStopped, tc.escalated)
			}
		})
	}
}
