// Package intrust holds only tests: the module exports no Go API, and
// cmd/intrust (CLI and HTTP server) is its interface.
package intrust

//go:generate go run ./cmd/intrust attacks -markdown -o EXPERIMENTS.md
//go:generate go run ./cmd/intrust defenses -markdown -o docs/DEFENSES.md

import (
	"os"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/scenario"
)

// TestExperimentsIndexInSync pins the generated EXPERIMENTS.md to the
// live scenario registry, so the catalog index never goes stale.
// Regenerate with `go generate ./...` (the directives above).
func TestExperimentsIndexInSync(t *testing.T) {
	disk, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("EXPERIMENTS.md missing (run go generate ./...): %v", err)
	}
	want := scenario.CatalogMarkdown(scenario.Default)
	if string(disk) != want {
		t.Error("EXPERIMENTS.md is stale relative to the scenario registry: run `go generate ./...`")
	}
	// Sanity on content the catalog promises: every registered scenario
	// appears by name.
	for _, s := range scenario.Default.All() {
		if !strings.Contains(string(disk), "`"+s.Name()+"`") {
			t.Errorf("EXPERIMENTS.md does not mention scenario %q", s.Name())
		}
	}
}

// TestDefensesIndexInSync pins the generated docs/DEFENSES.md to the
// live defense registry — the defense handbook can never go stale.
// Regenerate with `go generate ./...`.
func TestDefensesIndexInSync(t *testing.T) {
	disk, err := os.ReadFile("docs/DEFENSES.md")
	if err != nil {
		t.Fatalf("docs/DEFENSES.md missing (run go generate ./...): %v", err)
	}
	want := defense.CatalogMarkdown(defense.Default)
	if string(disk) != want {
		t.Error("docs/DEFENSES.md is stale relative to the defense registry: run `go generate ./...`")
	}
	// Sanity on content the handbook promises: every registered defense
	// appears by name, and every blocked-scenario reference resolves in
	// the scenario registry (the cross-catalog consistency the paper's
	// defense matrix depends on).
	for _, d := range defense.Default.All() {
		if !strings.Contains(string(disk), "`"+d.Name()+"`") {
			t.Errorf("docs/DEFENSES.md does not mention defense %q", d.Name())
		}
		for _, blocked := range d.BlocksList {
			if _, ok := scenario.Default.Lookup(blocked); !ok {
				t.Errorf("defense %q claims to block unknown scenario %q", d.Name(), blocked)
			}
		}
	}
}

// TestFacadeDefenseAPI exercises the defense catalog as a scheduler
// would: enumerate the catalog, look a defense up,
// resolve an architecture's stock set, build a defended environment,
// mount a scenario through it.
func TestFacadeDefenseAPI(t *testing.T) {
	if got := len(defense.Default.All()); got < 10 {
		t.Fatalf("catalog lists %d defenses, want >= 10", got)
	}
	d, ok := defense.Default.Lookup("Way-Partition")
	if !ok {
		t.Fatal("way-partition not registered (case-insensitive lookup)")
	}
	if stock := defense.StockFor("sanctum"); len(stock) != 1 || stock[0].Name() != d.Name() {
		t.Errorf("StockDefenses(sanctum) = %v, want [way-partition]", stock)
	}
	s, ok := scenario.Default.Lookup("flush+reload")
	if !ok {
		t.Fatal("flush+reload not registered")
	}
	env, err := scenario.NewEnvWithDefenses("sgx", 48, 1, nil, []*defense.Spec{d})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Mount(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := scenario.VerdictClass(out.Verdict); got != "mitigated" {
		t.Errorf("flush+reload on way-partitioned SGX = %q (class %q), want mitigated", out.Verdict, got)
	}
}

// TestFacadeScenarioAPI exercises the scenario catalog as a scheduler
// would: enumerate the catalog, look a scenario up,
// build an environment, mount it.
func TestFacadeScenarioAPI(t *testing.T) {
	all := scenario.Default.All()
	if len(all) < 15 {
		t.Fatalf("catalog lists %d scenarios, want >= 15", len(all))
	}
	if got := len(scenario.Default.Families()); got != 4 {
		t.Errorf("scenario families = %d, want 4 (cachesca, transient, physical, attestation)", got)
	}
	s, ok := scenario.Default.Lookup("spectre-v1")
	if !ok {
		t.Fatal("spectre-v1 not registered")
	}
	if ok, reason := s.Applicable("sancus"); !ok || reason != "" {
		t.Errorf("spectre-v1 on sancus: applicable=%v reason=%q", ok, reason)
	}
	env, err := scenario.NewEnv("sancus", 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Mount(env)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != "blocked" {
		t.Errorf("spectre-v1 on the in-order embedded core = %q, want blocked", out.Verdict)
	}
	// A private registry, checked by the catalog's rules, is independent
	// of the default catalog.
	reg := scenario.NewRegistry()
	if err := reg.Register(&scenario.Spec{
		ID: "rowhammer", In: "physical",
		Run: func(*scenario.Env) (scenario.Outcome, error) { return scenario.Outcome{Verdict: "n/a"}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := scenario.Default.Lookup("rowhammer"); ok {
		t.Error("custom registration leaked into the default catalog")
	}
}

// TestFacadeSweepScale pins the acceptance floors of the sweep: the
// default sweep enumerates at least 100 (scenario, architecture) cells
// on the stock defense layer, and the full 3-D grid (none + stock +
// every cataloged defense) at least 1000.
func TestFacadeSweepScale(t *testing.T) {
	exps, err := core.SweepExperiments(nil, nil, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) < 100 {
		t.Errorf("default sweep enumerates %d cells, want >= 100", len(exps))
	}
	exps, err = core.SweepExperiments(nil, nil, []string{"none", "stock", "all"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) < 1000 {
		t.Errorf("full 3-D sweep enumerates %d cells, want >= 1000", len(exps))
	}
}
