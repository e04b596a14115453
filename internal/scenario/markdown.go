package scenario

import (
	"fmt"
	"strings"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/platform"
)

// familyHeading maps a family key to its catalog heading.
func familyHeading(family string) string {
	switch family {
	case axis.FamilyCacheSCA:
		return "Cache side channels (paper §4.1) — family `cachesca`"
	case axis.FamilyTransient:
		return "Transient execution (paper §4.2) — family `transient`"
	case axis.FamilyPhysical:
		return "Classical physical attacks (paper §5) — family `physical`"
	case axis.FamilyAttestation:
		return "Attestation-lifecycle attacks (paper §3) — family `attestation`"
	}
	return "Family `" + family + "`"
}

// SamplingCell renders a scenario's sampling profile for the catalog:
// how the adaptive verdict engine measures it (cumulative sequential
// passes, with the declared floor as the reference budget, or a single
// budget-independent mount) and what a fixed budget costs.
func SamplingCell(s *Spec) string {
	if s.RunSeq == nil {
		return "one-shot"
	}
	if s.Floor > 0 {
		return fmt.Sprintf("sequential, floor %d", s.Floor)
	}
	return "sequential"
}

// CatalogMarkdown renders the registry as the EXPERIMENTS.md index:
// the CLI-mode table for the paper's fixed artifacts, then one table per
// scenario family with name, paper section, summary, sampling profile
// and the applicable architectures. Regenerate with `go generate ./...`.
func CatalogMarkdown(r *axis.Registry[*Spec]) string {
	var b strings.Builder
	b.WriteString(`# EXPERIMENTS — index of everything intrust can measure

<!-- Generated from the scenario registry by 'go generate ./...'
     (cmd/intrust attacks -markdown -o EXPERIMENTS.md). Do not edit by hand. -->

Two kinds of experiments exist:

1. **Paper artifacts** — fixed enumerations that regenerate the paper's
   figure and comparison tables (one CLI mode each).
2. **Attack scenarios** — the self-registering catalog in
   ` + "`internal/scenario`" + `, swept against all eight architectures by
   ` + "`intrust sweep`" + ` and listed by ` + "`intrust attacks`" + `.

## Paper artifacts

| Artifact | CLI mode | Go entry point | Paper section |
|---|---|---|---|
| Figure 1 adversary/requirement heatmap | ` + "`intrust fig1`" + ` | ` + "`core.Figure1`" + ` | §2 |
| TAB2 architecture feature matrix | ` + "`intrust arch`" + ` | ` + "`core.Table2Architectures`" + ` | §3 |
| TAB3 cache attacks vs defenses | ` + "`intrust cachesca`" + ` | ` + "`core.Table3CacheSCA`" + ` | §4.1 |
| TAB4 transient attacks vs configurations | ` + "`intrust transient`" + ` | ` + "`core.Table4Transient`" + ` | §4.2 |
| TAB5 physical attacks vs countermeasures | ` + "`intrust physical`" + ` | ` + "`core.Table5Physical`" + ` | §5 |
| Scenario × architecture sweep | ` + "`intrust sweep`" + ` | ` + "`core.SweepExperiments`" + ` | §3–§5 |

## Attack-scenario catalog

`)
	fmt.Fprintf(&b, "%d scenarios over %d architectures — %d grid cells per full sweep.\n",
		r.Len(), len(platform.Architectures), r.Len()*len(platform.Architectures))
	for _, family := range r.Families() {
		b.WriteString("\n### " + familyHeading(family) + "\n\n")
		b.WriteString("| Scenario | Paper § | What it mounts | Sampling | Applicable architectures |\n")
		b.WriteString("|---|---|---|---|---|\n")
		var notes []string
		for _, s := range r.ByFamily(family) {
			section := s.Section
			if section == "" {
				section = "—"
			}
			// One representative n/a reason per scenario keeps the
			// table readable; the sweep reports the reason per cell.
			if _, na := axis.ApplicableArchitectures(s.Applicable); len(na) > 0 {
				for _, arch := range platform.Architectures {
					if reason, ok := na[arch]; ok {
						notes = append(notes, fmt.Sprintf("`%s` n/a elsewhere: %s", s.Name(), reason))
						break
					}
				}
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", s.Name(), section, s.Summary, SamplingCell(s), axis.ApplicableCell(s.Applicable))
		}
		for _, n := range notes {
			b.WriteString("\n> " + n + "\n")
		}
	}
	b.WriteString(`
## Running the catalog

` + "```console" + `
$ go run ./cmd/intrust attacks                      # this catalog, as a table
$ go run ./cmd/intrust sweep                        # every (scenario, architecture) cell, stock defenses
$ go run ./cmd/intrust sweep -attack flush+reload   # one scenario across all architectures
$ go run ./cmd/intrust sweep -attack cachesca,clkscrew -arch trustzone,sanctuary
$ go run ./cmd/intrust sweep -defense none,stock,all -diff   # the 3-D defense-efficacy grid
` + "```" + `

` + "`-attack`" + ` accepts scenario names and family names, case-insensitively,
in any mix; ` + "`all`" + ` anywhere in an axis selects the full axis.
Not-applicable cells are reported with the paper's reason (e.g. no shared
caches on embedded platforms) rather than silently skipped.

` + "`-defense`" + ` is the third grid axis: every cell can run with no
mitigations (` + "`none`" + `), the architecture's paper wiring (` + "`stock`" + `,
the default), or any mitigation set from the defense catalog — see the
generated [docs/DEFENSES.md](docs/DEFENSES.md) handbook and
` + "`intrust defenses`" + `.

## Adaptive sampling

Sweeps run under the adaptive sequential-sampling verdict engine
(` + "`internal/stats`" + `) by default. The Sampling column above states how
each scenario measures:

- **sequential** — the scenario extends ONE cumulative sample set
  through a checkpoint ladder (reference/8, reference/4, ... reference)
  and regrades at each rung, stopping the moment the secret is fully
  recovered. A pass that drains the ladder has measured exactly the
  fixed-budget statistic, so verdicts never change — only their cost.
  Declared floors are the reference budgets.
- **one-shot** — the measurement is budget-independent (fault counts,
  transient extraction); one mount settles the cell.

` + "`-confidence`" + ` sets the per-cell verdict confidence target (default
0.9; hard cells escalate with further independent passes up to
` + "`-maxsamples`" + `), and ` + "`-confidence 0`" + ` restores fixed budgets.
Every adaptive cell reports ` + "`samples used/reference`" + ` and its posterior
confidence in the sweep table and the JSON report; the golden-grid test
(` + "`internal/core/testdata/golden_grid.tsv`" + `) pins that the adaptive
engine reproduces the fixed engine's class on all 1280 cells.
`)
	return b.String()
}
