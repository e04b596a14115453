package attestsvc

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"github.com/intrust-sim/intrust/internal/platform"
)

// Cell is the attestation service's view of one sweep grid cell: which
// attack ran on which architecture under which defense, and how the
// verdict classified ("broken", "mitigated", "n/a"). It deliberately
// mirrors the grid's output rather than importing the engine, so the
// revocation logic can be fed from a live sweep, a cached serve-tier
// grid, or a test fixture alike.
type Cell struct {
	Scenario string `json:"scenario"`
	Arch     string `json:"arch"`
	Defense  string `json:"defense"`
	Class    string `json:"class"`
}

// ClassBroken is the verdict class that triggers revocation.
const ClassBroken = "broken"

// Revocations is the sweep-driven TCB state: per architecture, the
// minimum TCB version verifiers accept and the evidence (broken
// `none`-defense cells) that raised it. An arch with any broken
// undefended cell is TCB-compromised at the baseline level — its quotes
// must claim the stock defense configuration (TCB ≥ stock) to verify.
type Revocations struct {
	minTCB map[string]uint32
	broken map[string][]string
}

// Revoke folds grid cells into revocation state. Only `none`-defense
// cells count: a broken cell under some other defense says that defense
// failed, not that the baseline TCB is compromised (the baseline already
// is, via the same scenario's none cell, whenever that holds).
func Revoke(cells []Cell) *Revocations {
	r := &Revocations{minTCB: map[string]uint32{}, broken: map[string][]string{}}
	for _, c := range cells {
		if c.Defense != ConfigNone || c.Class != ClassBroken {
			continue
		}
		if _, ok := platform.ArchClass(c.Arch); !ok {
			continue
		}
		r.minTCB[c.Arch] = TCBStock
		r.broken[c.Arch] = append(r.broken[c.Arch], c.Scenario)
	}
	for arch, b := range r.broken {
		slices.Sort(b)
		r.broken[arch] = slices.Compact(b)
	}
	return r
}

// MinTCB returns the minimum accepted TCB version for an architecture
// (TCBBaseline when nothing is revoked).
func (r *Revocations) MinTCB(arch string) uint32 {
	if r == nil {
		return TCBBaseline
	}
	if v, ok := r.minTCB[arch]; ok {
		return v
	}
	return TCBBaseline
}

// Revoked reports whether the architecture's baseline TCB is revoked.
func (r *Revocations) Revoked(arch string) bool { return r.MinTCB(arch) > TCBBaseline }

// BrokenScenarios lists the scenarios whose broken none-cells revoked the
// architecture, sorted.
func (r *Revocations) BrokenScenarios(arch string) []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.broken[arch]...)
}

// Fingerprint is a stable digest of the full revocation state, used to
// key verify-result caches: two grids that revoke identically share
// cached verdicts.
func (r *Revocations) Fingerprint() string {
	var b strings.Builder
	b.WriteString("intrust/attestsvc/rev/v1")
	for _, arch := range platform.Architectures {
		fmt.Fprintf(&b, "|%s=%d", arch, r.MinTCB(arch))
		if r != nil {
			for _, s := range r.broken[arch] {
				b.WriteString(";")
				b.WriteString(s)
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

// TCBStatus is one architecture's row in a TCB dump.
type TCBStatus struct {
	Arch            string   `json:"arch"`
	MinTCB          uint32   `json:"min_tcb"`
	Revoked         bool     `json:"revoked"`
	BrokenScenarios []string `json:"broken_scenarios,omitempty"`
}

// Statuses renders the revocation state for every surveyed architecture
// in the paper's Section 3 order.
func (r *Revocations) Statuses() []TCBStatus {
	out := make([]TCBStatus, 0, len(platform.Architectures))
	for _, arch := range platform.Architectures {
		out = append(out, TCBStatus{
			Arch:            arch,
			MinTCB:          r.MinTCB(arch),
			Revoked:         r.Revoked(arch),
			BrokenScenarios: r.BrokenScenarios(arch),
		})
	}
	return out
}
