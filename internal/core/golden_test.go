package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

// The golden grid pins the full scenario × architecture × defense class
// table — every registered scenario against every architecture under
// every cataloged defense (the `-defense all` axis), 2432 cells — to a
// checked-in file. The file is generated from the FIXED-budget engine
// (go test -run TestGoldenGrid -update) and the test replays the grid
// through the ADAPTIVE sequential-sampling engine: the two must agree on
// every cell's broken/mitigated/n-a class. That is the adaptive engine's
// contract — it changes what a verdict costs, never what it is — and the
// same file guards any future refactor of the scenario catalog, the
// defense registry or the sweep.

// goldenSamples is the requested per-cell budget of the golden grid
// (raised to each scenario's floor as usual). Large enough that no
// applicable cell sits on a statistical knife edge, small enough that
// regenerating and replaying the 2432 cells stays affordable.
const goldenSamples = 96

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_grid.tsv and testdata/fixed_rows.tsv from the fixed-budget engine, and the pinned TAB5/FIG1 renders")

// raceDetectorEnabled is set by race_test.go under `go test -race`.
var raceDetectorEnabled bool

func goldenPath() string { return filepath.Join("testdata", "golden_grid.tsv") }

// goldenLines renders sweep results as sorted "scenario arch defense
// class" TSV lines. Error rows render as class "error" so a broken
// engine can never silently produce a matching table.
func goldenLines(results []engine.Result) []string {
	lines := make([]string, 0, len(results))
	for i := range results {
		r := &results[i]
		class := "error"
		if !r.Failed() {
			if class = scenario.VerdictClass(r.Verdict); class == "" {
				class = "unknown"
			}
		}
		lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%s",
			sweepScenarioName(r.Name), r.Arch, sweepDefenseLabel(r.Name), class))
	}
	sort.Strings(lines)
	return lines
}

func goldenGrid(t *testing.T, opt SweepOptions) []engine.Result {
	t.Helper()
	exps, err := SweepExperimentsWith(nil, nil, []string{"all"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(0).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestGoldenGrid replays the full 2432-cell grid through the adaptive
// engine at the default confidence and compares every cell's class
// against the checked-in fixed-budget golden table. Run with -update to
// regenerate the table from the fixed engine after intentionally
// changing verdict semantics (new scenarios, new defenses, regraded
// thresholds) — never to paper over an unintended flip.
func TestGoldenGrid(t *testing.T) {
	if raceDetectorEnabled && !*updateGolden {
		t.Skip("skipping the 2432-cell golden replay under the race detector; the concurrent sweep tests cover the engine's synchronization")
	}
	if *updateGolden {
		results := goldenGrid(t, SweepOptions{Samples: goldenSamples})
		data := strings.Join(goldenLines(results), "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cells from the fixed-budget engine", len(results))
	}
	want, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("golden grid missing (run `go test -run TestGoldenGrid -update ./internal/core`): %v", err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")

	results := goldenGrid(t, SweepOptions{Samples: goldenSamples, Adaptive: &stats.Policy{}})
	gotLines := goldenLines(results)

	nScen, nArch, nDef := scenario.Default.Len(), len(platform.Architectures), defense.Default.Len()
	if wantCells := nScen * nArch * nDef; len(gotLines) != wantCells {
		t.Errorf("grid covers %d cells, want %d (%d scenarios x %d architectures x %d defenses)",
			len(gotLines), wantCells, nScen, nArch, nDef)
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("adaptive grid has %d cells, golden has %d", len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			diffs++
			if diffs <= 20 {
				t.Errorf("cell class changed:\n  golden:   %s\n  adaptive: %s", wantLines[i], gotLines[i])
			}
		}
	}
	if diffs > 20 {
		t.Errorf("... and %d more changed cells", diffs-20)
	}
	if diffs > 0 {
		t.Errorf("%d/%d cells changed class: the adaptive engine must change cost, never verdicts", diffs, len(wantLines))
	}

	// The cost side of the contract: the replay must actually have
	// sampled adaptively (decisions present, with a real saving), not
	// silently fallen back to fixed budgets.
	s := engine.Summarize(results, 0)
	if s.TotalSamples == 0 || s.FixedSamples == 0 {
		t.Fatal("adaptive replay carries no sampling decisions")
	}
	if s.EarlyStopped == 0 {
		t.Error("adaptive replay stopped no cell early")
	}
	if ratio := float64(s.FixedSamples) / float64(s.TotalSamples); ratio < 1.5 {
		t.Errorf("adaptive grid burned %d samples vs %d fixed (%.2fx saving), want >= 1.5x",
			s.TotalSamples, s.FixedSamples, ratio)
	}
}

// fixedRowDefenses is the defense axis of the fixed-row golden: the
// undefended baseline plus the two software mitigations that flip the
// sequential scenarios (ct-aes for the cache channels, masked-aes for
// DPA/CPA), so the file covers both broken and fully drained passes.
var fixedRowDefenses = []string{"none", "ct-aes", "masked-aes"}

func fixedRowsPath() string { return filepath.Join("testdata", "fixed_rows.tsv") }

// fixedRowLines renders sweep results as sorted "scenario arch defense
// measurement verdict" TSV lines. Error rows carry the error text as
// their measurement.
func fixedRowLines(results []engine.Result) []string {
	lines := make([]string, 0, len(results))
	for i := range results {
		r := &results[i]
		measurement, verdict := r.Err, "error"
		if !r.Failed() {
			measurement, verdict = r.Rows[0][2], r.Verdict
		}
		lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%s\t%s",
			sweepScenarioName(r.Name), r.Arch, sweepDefenseLabel(r.Name), measurement, verdict))
	}
	sort.Strings(lines)
	return lines
}

// TestGoldenGridFixedRows pins the fixed-budget engine's measurement
// bytes, which the class-only golden grid does not cover: every
// sequential scenario against every architecture under the
// fixedRowDefenses axis, full rows at the golden budget. Regenerate with
// -update only after intentionally changing what a measurement reports.
func TestGoldenGridFixedRows(t *testing.T) {
	if raceDetectorEnabled && !*updateGolden {
		t.Skip("skipping the fixed-row replay under the race detector; the concurrent sweep tests cover the engine's synchronization")
	}
	var seq []string
	for _, s := range scenario.Default.All() {
		if s.RunSeq != nil {
			seq = append(seq, s.Name())
		}
	}
	exps, err := SweepExperimentsWith(nil, seq, fixedRowDefenses, SweepOptions{Samples: goldenSamples})
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(0).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(fixedRowLines(results), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(fixedRowsPath(), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixed rows", len(results))
	}
	want, err := os.ReadFile(fixedRowsPath())
	if err != nil {
		t.Fatalf("fixed rows missing (run `go test -run TestGoldenGridFixedRows -update ./internal/core`): %v", err)
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("fixed grid has %d rows, golden has %d", len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			if diffs++; diffs <= 20 {
				t.Errorf("fixed row changed:\n  golden: %s\n  now:    %s", wantLines[i], gotLines[i])
			}
		}
	}
	if diffs > 0 {
		t.Errorf("%d/%d fixed rows changed", diffs, len(wantLines))
	}
}
