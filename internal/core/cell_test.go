package core

import (
	"context"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/stats"
)

func TestCellKeyEncodeDecodeRoundTrip(t *testing.T) {
	keys := []CellKey{
		{},
		{Scenario: "flush+reload", Arch: "sgx", Defense: "none", Samples: 64, Confidence: 0.9},
		{Scenario: "dfa-piret-quisquater", Arch: "trustzone", Defense: "ct-aes+clock-jitter", Samples: 1500, Confidence: 0.99, MaxSamples: 6000, Seed: -7},
		{Scenario: "weird|name", Arch: "a%b", Defense: "x%7Cy", Samples: -3, Confidence: 0.5},
	}
	for _, k := range keys {
		enc := k.Encode()
		got, err := DecodeCellKey(enc)
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if got != k {
			t.Errorf("decode(encode(%+v)) = %+v", k, got)
		}
	}
}

func TestCellKeyDecodeRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"", "cell", "cell|v1", "cell|v2|a|b|c|1|0|0|0",
		"cell|v1|a|b|c|x|0|0|0",       // non-integer samples
		"cell|v1|a|b|c|1|zz|0|0",      // non-float confidence
		"cell|v1|a%7|b|c|1|0|0|0",     // truncated escape
		"cell|v1|a%41|b|c|1|0|0|0",    // non-canonical escape
		"cell|v1|a|b|c|1|0|0|0|extra", // too many fields
		"grid|v1|a|b|c|1|0|0|0",       // wrong prefix
	} {
		if _, err := DecodeCellKey(s); err == nil {
			t.Errorf("DecodeCellKey(%q) accepted garbage", s)
		}
	}
}

// TestResolveCellCanonicalizes pins the content-addressing property:
// every accepted spelling of the same cell folds onto one key, so
// equivalent requests share one cache entry.
func TestResolveCellCanonicalizes(t *testing.T) {
	base, err := ResolveCell("flush+reload", "sgx", "clock-jitter+ct-aes", CellOptions{Samples: 64, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ scen, arch, def string }{
		{"Flush+Reload", "SGX", "clock-jitter+ct-aes"},
		{"flush+reload", "sgx", "CT-AES+Clock-Jitter"}, // permuted, mixed case
		{"FLUSH+RELOAD", "Sgx", " ct-aes + clock-jitter "},
	} {
		k, err := ResolveCell(tc.scen, tc.arch, tc.def, CellOptions{Samples: 64, Confidence: 0.9})
		if err != nil {
			t.Fatalf("ResolveCell(%+v): %v", tc, err)
		}
		if k != base {
			t.Errorf("ResolveCell(%+v) = %+v, want %+v", tc, k, base)
		}
	}
	if base.Defense != "clock-jitter+ct-aes" {
		t.Errorf("canonical defense label = %q, want sorted lower-case form", base.Defense)
	}
}

func TestResolveCellRaisesFloorAndDefaults(t *testing.T) {
	// dpa declares a trace floor well above the default budget; the
	// canonical key must carry the effective cost, not the request.
	k, err := ResolveCell("dpa", "sgx", "none", CellOptions{Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k.Samples < 100 {
		t.Errorf("dpa key samples = %d, want the scenario floor", k.Samples)
	}
	low, err := ResolveCell("dpa", "sgx", "none", CellOptions{Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if low != k {
		t.Errorf("two sub-floor budgets resolved to distinct keys: %+v vs %+v", low, k)
	}
	// Empty defense defaults to stock, like the CLI's -defense default.
	d, err := ResolveCell("dpa", "sgx", "", CellOptions{Samples: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Defense != "stock" {
		t.Errorf("empty defense resolved to %q, want stock", d.Defense)
	}
	// Fixed-budget keys carry no adaptive cap.
	f, err := ResolveCell("dpa", "sgx", "none", CellOptions{Confidence: 0, MaxSamples: 999})
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxSamples != 0 {
		t.Errorf("fixed-budget key kept MaxSamples = %d", f.MaxSamples)
	}
}

func TestResolveCellErrors(t *testing.T) {
	for _, tc := range []struct {
		name            string
		scen, arch, def string
		opt             CellOptions
	}{
		{"unknown scenario", "no-such-attack", "sgx", "none", CellOptions{}},
		{"family token", "transient", "sgx", "none", CellOptions{}},
		{"all scenarios", "all", "sgx", "none", CellOptions{}},
		{"empty scenario", "", "sgx", "none", CellOptions{}},
		{"unknown arch", "dpa", "riscv", "none", CellOptions{}},
		{"all archs", "dpa", "all", "none", CellOptions{}},
		{"empty arch", "dpa", "", "none", CellOptions{}},
		{"unknown defense", "dpa", "sgx", "moat", CellOptions{}},
		{"all defenses", "dpa", "sgx", "all", CellOptions{}},
		{"low confidence", "dpa", "sgx", "none", CellOptions{Confidence: 0.3}},
		{"confidence one", "dpa", "sgx", "none", CellOptions{Confidence: 1}},
		{"oversized budget", "dpa", "smart", "none", CellOptions{Samples: maxCellSamples + 1}},
		{"oversized cap", "dpa", "smart", "none", CellOptions{Samples: 64, Confidence: 0.9, MaxSamples: maxCellSamples + 1}},
	} {
		if _, err := ResolveCell(tc.scen, tc.arch, tc.def, tc.opt); err == nil {
			t.Errorf("%s: ResolveCell(%q,%q,%q) accepted", tc.name, tc.scen, tc.arch, tc.def)
		}
	}
}

// TestEnumerateCellsMatchesSweep is the cross-surface equivalence
// guard: the HTTP surface enumerates cells through EnumerateCells, the
// CLI through SweepExperimentsWith — both must resolve any accepted
// axis spelling ("All", mixed case, "+"-combos, duplicates) to the
// same grid in the same order, or verdict surfaces drift.
func TestEnumerateCellsMatchesSweep(t *testing.T) {
	cases := []struct {
		name                     string
		archs, attacks, defenses []string
	}{
		{"defaults", nil, nil, nil},
		{"all spelled out", []string{"All"}, []string{"ALL"}, []string{"all"}},
		{"families and names", []string{"sgx", "TrustZone"}, []string{"CacheSCA", "clkscrew"}, []string{"None", "Stock"}},
		{"combo permuted", []string{"sgx"}, []string{"dpa"}, []string{"clock-jitter+CT-AES", "ct-aes+clock-jitter"}},
		{"duplicates", []string{"sgx", "sgx"}, []string{"dpa", "DPA"}, []string{"none", "none"}},
		{"mixed all", []string{"sgx", "all"}, []string{"transient"}, []string{"stock"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys, err := EnumerateCells(tc.archs, tc.attacks, tc.defenses, CellOptions{Samples: 64, Confidence: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			exps, err := SweepExperimentsWith(tc.archs, tc.attacks, tc.defenses,
				SweepOptions{Samples: 64, Adaptive: &stats.Policy{Confidence: 0.9}})
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(exps) {
				t.Fatalf("EnumerateCells found %d cells, sweep %d", len(keys), len(exps))
			}
			for i, k := range keys {
				exp, err := k.Experiment()
				if err != nil {
					t.Fatalf("cell %d (%+v): %v", i, k, err)
				}
				if exp.Name != exps[i].Name {
					t.Fatalf("cell %d: key resolves to %q, sweep enumerates %q", i, exp.Name, exps[i].Name)
				}
				if exp.Seed != exps[i].Seed || exp.Samples != exps[i].Samples {
					t.Errorf("cell %d (%s): key job (seed %d, samples %d) != sweep job (seed %d, samples %d)",
						i, exp.Name, exp.Seed, exp.Samples, exps[i].Seed, exps[i].Samples)
				}
				if !strings.HasSuffix(exp.Name, "/"+k.Defense) {
					t.Errorf("cell %d: experiment %q does not end in canonical defense label %q", i, exp.Name, k.Defense)
				}
			}
		})
	}
}

// TestRunCellMatchesSweep pins the serve layer's soundness argument at
// the measurement level: a cell computed alone through RunCell is
// verdict- and sampling-identical to the same cell inside a pooled
// sweep run.
func TestRunCellMatchesSweep(t *testing.T) {
	archs := []string{"sgx", "sancus"}
	attacks := []string{"flush+reload", "spectre-v1", "bellcore"}
	defenses := []string{"none", "stock"}
	opt := SweepOptions{Samples: 64, Adaptive: &stats.Policy{}}
	exps, err := SweepExperimentsWith(archs, attacks, defenses, opt)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := engine.New(4).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := EnumerateCells(archs, attacks, defenses, CellOptions{Samples: 64, Confidence: stats.DefaultConfidence})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(pooled) {
		t.Fatalf("%d keys vs %d pooled results", len(keys), len(pooled))
	}
	for i, k := range keys {
		res, err := RunCell(context.Background(), k)
		if err != nil {
			t.Fatalf("RunCell(%+v): %v", k, err)
		}
		p := &pooled[i]
		if res.Verdict != p.Verdict || res.Detail != p.Detail {
			t.Errorf("%s: RunCell verdict %q/%q, sweep %q/%q", p.Name, res.Verdict, res.Detail, p.Verdict, p.Detail)
		}
		if (res.Sampling == nil) != (p.Sampling == nil) {
			t.Fatalf("%s: sampling presence differs", p.Name)
		}
		if res.Sampling != nil && *res.Sampling != *p.Sampling {
			t.Errorf("%s: RunCell sampling %+v, sweep %+v", p.Name, *res.Sampling, *p.Sampling)
		}
	}
}

func TestCellExperimentRejectsNonCanonical(t *testing.T) {
	for _, k := range []CellKey{
		{Scenario: "Flush+Reload", Arch: "sgx", Defense: "none", Samples: 64},                // scenario case
		{Scenario: "flush+reload", Arch: "SGX", Defense: "none", Samples: 64},                // arch case
		{Scenario: "flush+reload", Arch: "sgx", Defense: "ct-aes+clock-jitter", Samples: 64}, // unsorted combo
		{Scenario: "dpa", Arch: "sgx", Defense: "none", Samples: 1},                          // below the dpa trace floor
		{Scenario: "flush+reload", Arch: "sgx", Defense: "none", Samples: 64, MaxSamples: 9}, // cap without confidence
		{Scenario: "nope", Arch: "sgx", Defense: "none", Samples: 64},
		{Scenario: "flush+reload", Arch: "sgx", Defense: "fortress", Samples: 64},
		{Scenario: "dpa", Arch: "smart", Defense: "none", Samples: maxCellSamples + 1}, // over the budget cap
	} {
		if _, err := k.Experiment(); err == nil {
			t.Errorf("Experiment accepted non-canonical key %+v", k)
		}
	}
}

// TestResolveCellAllocs pins the allocation count of resolving one named
// cell address, the work every /cell request does before it looks at the
// cache. The expanders scan the kept-ordered registries instead of
// sorting the catalog and building lookup maps per call; a count above
// the bound means a per-call sort, map or copy came back. Allocation
// counts do not depend on the machine, so the gate holds on every runner
// except under the race detector, whose runtime allocates on its own
// account.
func TestResolveCellAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const bound = 3
	opt := CellOptions{Samples: 32}
	if _, err := ResolveCell("spectre-v1", "sgx", "none", opt); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		ResolveCell("spectre-v1", "sgx", "none", opt)
	}); n > bound {
		t.Errorf("ResolveCell allocates %v objects per call, want at most %d", n, bound)
	}
}

// BenchmarkResolveCell times resolving one named cell address: the
// three axis expansions and the option canonicalization, without the
// serve stack around them.
func BenchmarkResolveCell(b *testing.B) {
	opt := CellOptions{Samples: 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ResolveCell("spectre-v1", "sgx", "none", opt); err != nil {
			b.Fatal(err)
		}
	}
}
