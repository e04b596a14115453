package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

func sweepResults(t *testing.T, parallel int, defenses ...string) []engine.Result {
	t.Helper()
	exps, err := SweepExperiments(nil, nil, defenses, 48)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(parallel).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func stripTiming(rs []engine.Result) []engine.Result {
	out := make([]engine.Result, len(rs))
	for i, r := range rs {
		r.DurationNS = 0
		r.Run = nil
		out[i] = r
	}
	return out
}

// TestSweepDeterministicAcrossParallelism is the end-to-end determinism
// check on the full registry × architecture × defense grid: same seeds,
// same measurements, no matter the worker count. The defense axis mixes
// the baseline, the stock wiring and a named defense so the 3-D grid is
// covered, not just the default layer.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	axis := []string{"none", "stock", "way-partition"}
	serial := sweepResults(t, 1, axis...)
	parallel := sweepResults(t, 8, axis...)
	if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
		t.Error("sweep results differ between -parallel 1 and -parallel 8")
	}
}

// TestSweepCoversRegistryGrid pins the sweep's coverage claim: the
// default sweep enumerates every registered scenario against every
// architecture under the stock defense layer — at least 100 cells — and
// the paper's qualitative shapes hold on the grid.
func TestSweepCoversRegistryGrid(t *testing.T) {
	results := sweepResults(t, 0)
	nScen := len(scenario.All())
	if nScen < 15 {
		t.Fatalf("registry holds %d scenarios, want >= 15", nScen)
	}
	if want := nScen * len(AllArchitectures); len(results) != want {
		t.Fatalf("sweep produced %d results, want %d", len(results), want)
	}
	if len(results) < 100 {
		t.Fatalf("sweep covers %d cells, want >= 100", len(results))
	}
	byName := map[string]*engine.Result{}
	for i := range results {
		byName[results[i].Name] = &results[i]
		if len(results[i].Rows) == 0 {
			t.Errorf("%s emitted no table row", results[i].Name)
		}
	}
	// Every registered scenario is reachable from SweepExperiments, on
	// every architecture, under the default stock layer.
	for _, sc := range scenario.All() {
		for _, arch := range AllArchitectures {
			name := "sweep/" + sc.Family() + "/" + sc.Name() + "/" + arch + "/stock"
			r, ok := byName[name]
			if !ok {
				t.Errorf("grid cell %s missing", name)
				continue
			}
			// Applicability and the reported verdict must agree: cells
			// the scenario declares n/a report n/a with the paper's
			// reason, applicable cells measure something.
			if applicable, reason := sc.Applicable(arch); !applicable {
				if r.Verdict != "n/a" {
					t.Errorf("%s: verdict %q for non-applicable cell", name, r.Verdict)
				}
				if r.Detail != reason || reason == "" {
					t.Errorf("%s: n/a reason %q, want %q", name, r.Detail, reason)
				}
			} else if r.Verdict == "n/a" || r.Verdict == "" {
				t.Errorf("%s: applicable cell reported verdict %q", name, r.Verdict)
			}
			// The defense column derives from the registry's stock
			// metadata, never a parallel table.
			wantDef := "stock (none)"
			if names := defense.StockNames(arch); len(names) > 0 {
				wantDef = "stock (" + strings.Join(names, "+") + ")"
			}
			if r.Experiment.Defense != wantDef {
				t.Errorf("%s: defense label %q, want %q", name, r.Experiment.Defense, wantDef)
			}
		}
	}
	// Paper shapes: embedded architectures have no cache side channels;
	// SGX's EPC falls to Foreshadow; in-order cores block Spectre; the
	// Sanctum partition holds against Prime+Probe and Flush+Reload;
	// CLKSCREW is a mobile DVFS attack and recovers the TrustZone key.
	for name, want := range map[string]string{
		"sweep/cachesca/prime+probe/sancus/stock":      "n/a",
		"sweep/cachesca/flush+reload/sgx/stock":        "ATTACK SUCCEEDS",
		"sweep/cachesca/prime+probe/sanctum/stock":     "defense holds",
		"sweep/cachesca/flush+reload/sanctum/stock":    "defense holds",
		"sweep/transient/foreshadow/sgx/stock":         "LEAKS",
		"sweep/transient/foreshadow/trustzone/stock":   "n/a",
		"sweep/transient/spectre-v1/sancus/stock":      "blocked",
		"sweep/transient/spectre-v1/sgx/stock":         "LEAKS",
		"sweep/transient/meltdown/trustlite/stock":     "n/a",
		"sweep/physical/clkscrew/trustzone/stock":      "KEY RECOVERED",
		"sweep/physical/clkscrew/sgx/stock":            "n/a",
		"sweep/physical/cpa/sancus/stock":              "KEY RECOVERED",
		"sweep/physical/kocher-timing/trustzone/stock": "KEY RECOVERED",
	} {
		r, ok := byName[name]
		if !ok {
			t.Errorf("expected cell %s missing", name)
			continue
		}
		if r.Verdict != want {
			t.Errorf("%s verdict = %q, want %q", name, r.Verdict, want)
		}
	}
}

// TestSweepDefenseAxis pins the 3-D grid semantics: the defense axis
// multiplies the grid, "all" expands to every cataloged defense, defenses
// without substrate report n/a with a reason, and the acceptance cell —
// flush+reload on SGX — flips broken→mitigated under way-partition.
func TestSweepDefenseAxis(t *testing.T) {
	// -attack flush+reload -arch sgx -defense none,way-partition: two
	// cells, one per defense layer, and the verdict flips.
	exps, err := SweepExperiments([]string{"sgx"}, []string{"flush+reload"}, []string{"none", "way-partition"}, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 {
		t.Fatalf("2-layer defense axis produced %d experiments, want 2", len(exps))
	}
	results, err := engine.New(2).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]*engine.Result{}
	for i := range results {
		byLabel[sweepDefenseLabel(results[i].Name)] = &results[i]
	}
	if got := scenario.VerdictClass(byLabel["none"].Verdict); got != scenario.ClassBroken {
		t.Errorf("flush+reload/sgx/none class = %q, want broken", got)
	}
	if got := scenario.VerdictClass(byLabel["way-partition"].Verdict); got != scenario.ClassMitigated {
		t.Errorf("flush+reload/sgx/way-partition class = %q, want mitigated", got)
	}

	// "all" expands the axis to the whole catalog.
	exps, err = SweepExperiments([]string{"sgx"}, []string{"spectre-v1"}, []string{"all"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(defense.All()); len(exps) != want {
		t.Errorf("-defense all produced %d experiments, want %d", len(exps), want)
	}

	// A defense with no substrate on the architecture is an n/a cell with
	// a reason, not a silent no-op.
	exps, err = SweepExperiments([]string{"sancus"}, []string{"spectre-v1"}, []string{"way-partition"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	results, err = engine.New(1).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Verdict != "n/a" || !strings.Contains(results[0].Detail, "way-partition") {
		t.Errorf("inapplicable defense cell = %q (%q), want n/a with reason", results[0].Verdict, results[0].Detail)
	}

	// Case-insensitive matching and "+"-combinations; duplicates collapse,
	// including permuted combinations (the label canonicalizes by sorting
	// the resolved names).
	exps, err = SweepExperiments([]string{"sgx"}, []string{"flush+reload"},
		[]string{"WAY-PARTITION", "way-partition", "Ct-Aes+Clock-Jitter", "clock-jitter+CT-AES"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 {
		t.Errorf("case/dup/permutation defense axis produced %d experiments, want 2", len(exps))
	}

	// Unknown names are rejected.
	if _, err := SweepExperiments(nil, nil, []string{"moat"}, 8); err == nil {
		t.Error("unknown defense accepted")
	}
}

// TestSweepIdenticalWiringIdenticalNoise pins the seeding contract of the
// defense axis: two cells whose resolved wiring is identical — "none" and
// "stock" on an architecture that ships no defenses, or "stock" and the
// explicit stock defense name — measure byte-identically, so SweepDiff
// can never credit a flip to seed drift between spellings of the same
// configuration.
func TestSweepIdenticalWiringIdenticalNoise(t *testing.T) {
	run := func(archs, attacks, defenses []string) []engine.Result {
		t.Helper()
		exps, err := SweepExperiments(archs, attacks, defenses, 48)
		if err != nil {
			t.Fatal(err)
		}
		results, err := engine.New(2).Run(context.Background(), exps)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	// sgx ships no stock defenses: none vs stock is the same wiring.
	results := run([]string{"sgx"}, []string{"flush+reload", "dpa"}, []string{"none", "stock"})
	byKey := map[string][][]string{}
	for i := range results {
		byKey[sweepScenarioName(results[i].Name)+"/"+sweepDefenseLabel(results[i].Name)] = results[i].Rows
	}
	for _, scen := range []string{"flush+reload", "dpa"} {
		if !reflect.DeepEqual(byKey[scen+"/none"], byKey[scen+"/stock"]) {
			t.Errorf("%s: none and stock(none) on sgx measured differently: %v vs %v",
				scen, byKey[scen+"/none"], byKey[scen+"/stock"])
		}
	}
	// sanctum's stock IS way-partition: the stock cell and the explicit
	// way-partition cell are the same wiring.
	results = run([]string{"sanctum"}, []string{"prime+probe"}, []string{"stock", "way-partition"})
	if !reflect.DeepEqual(results[0].Rows, results[1].Rows) {
		t.Errorf("prime+probe on sanctum: stock(way-partition) and way-partition measured differently: %v vs %v",
			results[0].Rows, results[1].Rows)
	}
}

// TestSweepDiff pins the -diff view: the way-partition layer flips the
// flush+reload and prime+probe cells on undefended architectures and
// nothing else in the cachesca column, and the diff refuses to run
// without the none baseline.
func TestSweepDiff(t *testing.T) {
	exps, err := SweepExperiments([]string{"sgx"}, []string{"cachesca"}, []string{"none", "way-partition"}, 48)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(4).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := SweepDiff(results)
	if err != nil {
		t.Fatal(err)
	}
	flipped := map[string]bool{}
	for _, row := range dt.Rows {
		flipped[row[0]] = true
		if row[3] != scenario.ClassBroken || row[4] != scenario.ClassMitigated {
			t.Errorf("unexpected flip direction in %v", row)
		}
	}
	for _, want := range []string{"flush+reload", "prime+probe"} {
		if !flipped[want] {
			t.Errorf("diff misses the %s flip", want)
		}
	}
	for _, noflip := range []string{"tlb-channel", "branch-shadow", "evict+time"} {
		if flipped[noflip] {
			t.Errorf("diff reports a flip for %s, which way-partition does not cover", noflip)
		}
	}

	// Without a none baseline the diff is an error, not an empty table.
	exps, err = SweepExperiments([]string{"sgx"}, []string{"flush+reload"}, []string{"stock"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	results, err = engine.New(1).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepDiff(results); err == nil {
		t.Error("SweepDiff accepted a run without the none baseline")
	}
}

// TestSweepSampleFloors checks that a scenario's declared minimum budget
// is reflected in the enumerated experiment, not silently applied inside
// the job.
func TestSweepSampleFloors(t *testing.T) {
	exps, err := SweepExperiments([]string{"sgx"}, []string{"kocher-timing", "cpa"}, nil, 48)
	if err != nil {
		t.Fatal(err)
	}
	bySuffix := map[string]int{}
	for _, e := range exps {
		parts := strings.Split(e.Name, "/")
		bySuffix[parts[2]] = e.Samples
	}
	if bySuffix["kocher-timing"] != 600 {
		t.Errorf("kocher-timing samples = %d, want the 600 floor", bySuffix["kocher-timing"])
	}
	if bySuffix["cpa"] != 48 {
		t.Errorf("cpa samples = %d, want the requested 48", bySuffix["cpa"])
	}
}

func TestSweepAxisExpansion(t *testing.T) {
	nScen := len(scenario.All())
	// "all" is honored anywhere in the list, not only as the sole entry.
	exps, err := SweepExperiments([]string{"sgx", "all"}, []string{"spectre-v1"}, nil, 10)
	if err != nil || len(exps) != len(AllArchitectures) {
		t.Errorf(`["sgx","all"] expanded to %d experiments (err=%v), want %d`, len(exps), err, len(AllArchitectures))
	}
	exps, err = SweepExperiments([]string{"sgx"}, []string{"cachesca", "all"}, nil, 10)
	if err != nil || len(exps) != nScen {
		t.Errorf(`attack ["cachesca","all"] expanded to %d experiments (err=%v), want %d`, len(exps), err, nScen)
	}
	// Axis matching is case-insensitive for architectures, families and
	// scenario names.
	exps, err = SweepExperiments([]string{"SGX", "Sancus"}, []string{"Physical", "Flush+Reload"}, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantScen := len(scenario.ByFamily("physical")) + 1
	if len(exps) != wantScen*2 {
		t.Errorf("case-insensitive mixed selection produced %d experiments, want %d", len(exps), wantScen*2)
	}
	// Family + member variant dedupes; duplicates collapse.
	exps, err = SweepExperiments([]string{"sgx", "sgx"}, []string{"cachesca", "prime+probe"}, nil, 10)
	if err != nil || len(exps) != len(scenario.ByFamily("cachesca")) {
		t.Errorf("dedup selection produced %d experiments (err=%v)", len(exps), err)
	}
}

func TestSweepRejectsUnknownAxes(t *testing.T) {
	if _, err := SweepExperiments([]string{"enigma"}, nil, nil, 10); err == nil {
		t.Error("unknown architecture accepted")
	}
	if _, err := SweepExperiments(nil, []string{"rowhammer"}, nil, 10); err == nil {
		t.Error("unknown attack accepted")
	}
	// Unknown names are rejected even when "all" appears alongside them.
	if _, err := SweepExperiments([]string{"all", "enigma"}, nil, nil, 10); err == nil {
		t.Error("unknown architecture accepted when riding along with all")
	}
	if _, err := SweepExperiments(nil, nil, []string{"all", "moat"}, 10); err == nil {
		t.Error("unknown defense accepted when riding along with all")
	}
	// The CLI sweep honours the same budget cap as a single cell.
	if _, err := SweepExperiments(nil, []string{"dpa"}, nil, maxCellSamples+1); err == nil {
		t.Error("oversized budget accepted")
	}
	if _, err := SweepExperimentsWith(nil, []string{"dpa"}, nil,
		SweepOptions{Samples: 64, Adaptive: &stats.Policy{MaxSamples: maxCellSamples + 1}}); err == nil {
		t.Error("oversized adaptive cap accepted")
	}
	exps, err := SweepExperiments([]string{"sgx", "sancus"}, []string{"meltdown"}, nil, 10)
	if err != nil || len(exps) != 2 {
		t.Errorf("subset selection wrong: %d exps, err=%v", len(exps), err)
	}
}

// TestSweepJSONReport checks the machine-readable output end to end:
// run, serialize, parse, and find every grid cell again — including the
// defense axis label.
func TestSweepJSONReport(t *testing.T) {
	exps, err := SweepExperiments([]string{"sgx", "trustlite"}, []string{"transient"}, []string{"none", "spec-barrier"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(4)
	results, err := eng.Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.NewReport("intrust sweep", eng.Parallel, results, 0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := engine.ReadReport(&buf)
	if err != nil {
		t.Fatalf("sweep JSON does not parse: %v", err)
	}
	want := len(scenario.ByFamily("transient")) * 2 * 2
	if rep.Summary.Experiments != want || len(rep.Results) != want {
		t.Errorf("report covers %d/%d experiments, want %d", rep.Summary.Experiments, len(rep.Results), want)
	}
	seenDefense := false
	for i := range rep.Results {
		if rep.Results[i].Experiment.Defense == "spec-barrier" {
			seenDefense = true
		}
	}
	if !seenDefense {
		t.Error("JSON report dropped the defense axis label")
	}
	rendered := SweepTable(results).String()
	for _, wantStr := range []string{"sgx", "trustlite", "spectre-v1", "foreshadow", "meltdown", "spec-barrier", "mitigated"} {
		if !strings.Contains(rendered, wantStr) {
			t.Errorf("sweep table missing %q", wantStr)
		}
	}
}
