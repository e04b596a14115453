package defense

import (
	"fmt"
	"strings"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/platform"
)

// familyHeading maps a countered-family key to its handbook heading.
func familyHeading(family string) string {
	switch family {
	case axis.FamilyCacheSCA:
		return "Against cache side channels (paper §4.1)"
	case axis.FamilyTransient:
		return "Against transient execution (paper §4.2)"
	case axis.FamilyPhysical:
		return "Against classical physical attacks (paper §5)"
	case axis.FamilyAttestation:
		return "Against attestation-lifecycle attacks (paper §3)"
	}
	return "Against family `" + family + "`"
}

// joinOrDash renders a string list for a table cell, with "—" for empty.
func joinOrDash(vs []string) string {
	if len(vs) == 0 {
		return "—"
	}
	return strings.Join(vs, ", ")
}

// CatalogMarkdown renders the registry as the docs/DEFENSES.md handbook:
// one table per countered family with name, paper section, summary, the
// attack scenarios the defense blocks, the architectures that ship it
// stock, and the architectures it can be configured on. Regenerate with
// `go generate ./...`.
func CatalogMarkdown(r *axis.Registry[*Spec]) string {
	var b strings.Builder
	b.WriteString(`# DEFENSES — the mitigation catalog, as a handbook

<!-- Generated from the defense registry by 'go generate ./...'
     (cmd/intrust defenses -markdown -o docs/DEFENSES.md). Do not edit by hand. -->

Every mitigation the paper surveys is a registered ` + "`Defense`" + ` in
` + "`internal/defense`" + ` — a pure configuration transform the sweep can
toggle per cell. The ` + "`-defense`" + ` axis of ` + "`intrust sweep`" + ` accepts
these names (case-insensitively), plus three axis tokens:

- ` + "`none`" + ` — strip all defenses, including an architecture's stock wiring;
- ` + "`stock`" + ` — each architecture's paper wiring, resolved from the
  registry's stock-on metadata (never hard-coded);
- ` + "`all`" + ` — every cataloged defense, one grid layer each.

Names can be combined with ` + "`+`" + ` (e.g. ` + "`ct-aes+clock-jitter`" + `) to
measure layered mitigations as one grid cell.

`)
	fmt.Fprintf(&b, "%d defenses over %d architectures; `Blocks` below is the designed coverage, verified cell by cell by the sweep's broken/mitigated verdicts.\n",
		r.Len(), len(platform.Architectures))
	for _, family := range r.Families() {
		b.WriteString("\n## " + familyHeading(family) + "\n\n")
		b.WriteString("| Defense | Paper § | What it configures | Blocks | Stock on | Applicable architectures |\n")
		b.WriteString("|---|---|---|---|---|---|\n")
		var notes []string
		for _, d := range r.ByFamily(family) {
			section := d.Section
			if section == "" {
				section = "—"
			}
			// One representative n/a reason per defense keeps the table
			// readable; the sweep reports the reason per cell.
			if _, na := axis.ApplicableArchitectures(d.Applicable); len(na) > 0 {
				for _, arch := range platform.Architectures {
					if reason, ok := na[arch]; ok {
						notes = append(notes, fmt.Sprintf("`%s` n/a elsewhere: %s", d.Name(), reason))
						break
					}
				}
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n",
				d.Name(), section, d.Summary, joinOrDash(d.BlocksList), joinOrDash(d.Stock), axis.ApplicableCell(d.Applicable))
		}
		for _, n := range notes {
			b.WriteString("\n> " + n + "\n")
		}
	}
	b.WriteString(`
## Reading the efficacy grid

` + "```console" + `
$ go run ./cmd/intrust defenses                     # this handbook, as a table
$ go run ./cmd/intrust sweep -defense none,stock    # undefended baseline vs paper wiring
$ go run ./cmd/intrust sweep -attack flush+reload -arch sgx -defense none,way-partition
$ go run ./cmd/intrust sweep -defense all -diff     # which cells each defense flips vs none
` + "```" + `

Each sweep cell is graded broken (the attack still recovers the secret),
mitigated (it no longer does) or n/a with the paper's reason (the attack
or the defense has no substrate on that architecture). ` + "`-diff`" + ` compares
every defended cell against the ` + "`none`" + ` baseline and reports the flips —
the measured version of the paper's gains-and-pains argument: every
mitigation buys some cells and leaves others broken.
`)
	return b.String()
}
