// Package axis holds what the two catalog axes of the efficacy grid —
// the attack scenarios of internal/scenario and the mitigations of
// internal/defense — share: the paper's family keys and their order, one
// concurrency-safe registry type, and the applicability rendering of the
// architecture axis. It sits below both catalogs and knows neither.
package axis

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/intrust-sim/intrust/internal/platform"
)

// Family keys. A scenario belongs to one family; a defense names the
// family it counters, so the grid pairs each mitigation with the attacks
// it targets.
const (
	// FamilyCacheSCA is the §4.1 software cache side channels.
	FamilyCacheSCA = "cachesca"
	// FamilyTransient is the §4.2 transient-execution attacks.
	FamilyTransient = "transient"
	// FamilyPhysical is the §5 classical physical attacks.
	FamilyPhysical = "physical"
	// FamilyAttestation is the attacks on the §3 remote-attestation
	// protocol flow (quote replay, measure/use TOCTOU, stale-TCB
	// acceptance).
	FamilyAttestation = "attestation"
)

// FamilyOrder lists the families in the paper's section order (§4.1,
// §4.2, §5, then the §3 attestation lifecycle, which the survey
// introduces first but this codebase grew last) — the deterministic
// ordering used by Registry.All.
var FamilyOrder = []string{FamilyCacheSCA, FamilyTransient, FamilyPhysical, FamilyAttestation}

func familyRank(f string) int {
	for i, known := range FamilyOrder {
		if known == f {
			return i
		}
	}
	return len(FamilyOrder)
}

// Entry is what a registry holds: a named record of one family.
type Entry interface {
	comparable
	Name() string
	Family() string
}

// Registry is a concurrency-safe catalog keyed by name. Lookups are
// case-insensitive; enumeration order is deterministic (family in
// FamilyOrder ranking, then name) regardless of registration order, so
// registry-driven sweeps keep the engine's reproducibility guarantees.
// Register keeps the entries in that order as they arrive, so no
// enumeration sorts: a lookup path that walks the catalog (a /cell
// address resolving, a sweep cell's stock wiring) pays a copy, not a
// sort.
type Registry[T Entry] struct {
	kind     string
	check    func(T) error
	mu       sync.RWMutex
	byName   map[string]T // key: lower-cased name
	ordered  []T          // every entry, in All's order
	families []string     // the distinct families of ordered, in order
}

// New returns an empty registry of kind (the noun its errors use).
// check is the axis's own admission rule, run after the shared ones.
func New[T Entry](kind string, check func(T) error) *Registry[T] {
	return &Registry[T]{kind: kind, check: check, byName: map[string]T{}}
}

// Register adds an entry. It must be non-nil, with a non-empty name and
// family, pass the axis rule, and be unique by name case-insensitively —
// the CLI resolves user input case-insensitively, so two names
// differing only in case would be ambiguous.
func (r *Registry[T]) Register(e T) error {
	var zero T
	if e == zero {
		return fmt.Errorf("%s: register nil %s", r.kind, r.kind)
	}
	name := e.Name()
	if name == "" {
		return fmt.Errorf("%s: register with empty name", r.kind)
	}
	if e.Family() == "" {
		return fmt.Errorf("%s: register %q with empty family", r.kind, name)
	}
	if err := r.check(e); err != nil {
		return fmt.Errorf("%s: register %q: %w", r.kind, name, err)
	}
	key := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, dup := r.byName[key]; dup {
		return fmt.Errorf("%s: name %q already registered (as %q)", r.kind, name, prev.Name())
	}
	r.byName[key] = e
	i, _ := slices.BinarySearchFunc(r.ordered, e, compareEntries[T])
	r.ordered = slices.Insert(r.ordered, i, e)
	if i, found := slices.BinarySearchFunc(r.families, e.Family(), compareFamilies); !found {
		r.families = slices.Insert(r.families, i, e.Family())
	}
	return nil
}

// compareFamilies orders families by FamilyOrder rank, unknown families
// after the known ones, alphabetically.
func compareFamilies(a, b string) int {
	if c := familyRank(a) - familyRank(b); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// compareEntries is All's order: family, then name.
func compareEntries[T Entry](a, b T) int {
	if c := compareFamilies(a.Family(), b.Family()); c != 0 {
		return c
	}
	return strings.Compare(a.Name(), b.Name())
}

// MustRegister is Register panicking on error — for init-time catalog
// registration, where a bad entry is a programming error.
func (r *Registry[T]) MustRegister(e T) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Lookup finds an entry by name, case-insensitively.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[strings.ToLower(name)]
	return e, ok
}

// All returns every entry in deterministic order: families in
// FamilyOrder ranking (unknown families after, alphabetically), names
// alphabetically within a family. The slice is the caller's own.
func (r *Registry[T]) All() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(make([]T, 0, len(r.ordered)), r.ordered...)
}

// ByFamily returns the entries of one family (matched
// case-insensitively), in All's order.
func (r *Registry[T]) ByFamily(family string) []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []T
	for _, e := range r.ordered {
		if strings.EqualFold(e.Family(), family) {
			out = append(out, e)
		}
	}
	return out
}

// Families returns the distinct families with at least one entry, in
// FamilyOrder ranking.
func (r *Registry[T]) Families() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.families)
}

// IsFamily reports whether tok names a family with at least one entry.
// tok must already be lower-cased: families match by lower-casing, never
// by Unicode case folding, which would accept tokens such as "phyſical".
// Unlike Families, it copies nothing.
func (r *Registry[T]) IsFamily(tok string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.ContainsFunc(r.families, func(f string) bool { return strings.ToLower(f) == tok })
}

// Names returns every entry's name in All's order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = e.Name()
	}
	return out
}

// Len reports the number of entries.
func (r *Registry[T]) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// ApplicableArchitectures splits the architecture axis for one catalog
// entry, given its Applicable method: the architectures it applies to,
// and the not-applicable ones with their reasons.
func ApplicableArchitectures(applicable func(arch string) (bool, string)) (archs []string, na map[string]string) {
	na = map[string]string{}
	for _, arch := range platform.Architectures {
		if ok, reason := applicable(arch); ok {
			archs = append(archs, arch)
		} else {
			na[arch] = reason
		}
	}
	return archs, na
}

// ApplicableCell renders an entry's architecture axis as one catalog
// cell — "all N" or the comma-separated applicable list. The CLI tables
// and the generated catalogs share it so their renderings cannot
// diverge.
func ApplicableCell(applicable func(arch string) (bool, string)) string {
	archs, na := ApplicableArchitectures(applicable)
	if len(na) == 0 {
		return fmt.Sprintf("all %d", len(platform.Architectures))
	}
	return strings.Join(archs, ", ")
}

// NotOnEmbedded returns the applicability rule of an entry that needs
// hardware the embedded platform class lacks (a shared cache, a TLB, a
// branch predictor, an MMU): it holds on every other architecture and
// gives reason on the embedded ones.
func NotOnEmbedded(reason string) func(arch string) (bool, string) {
	return func(arch string) (bool, string) {
		if c, _ := platform.ArchClass(arch); c == platform.ClassEmbedded {
			return false, reason
		}
		return true, ""
	}
}
