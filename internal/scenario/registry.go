package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a concurrency-safe catalog of scenarios keyed by name.
// Lookups are case-insensitive; enumeration order is deterministic
// (family in FamilyOrder ranking, then name) regardless of registration
// order, so registry-driven sweeps keep the engine's reproducibility
// guarantees.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Scenario // key: lower-cased name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Scenario{}}
}

// Register adds a scenario. Names must be non-empty and unique (including
// case-insensitively — the CLI resolves user input case-insensitively, so
// two names differing only in case would be ambiguous), the family must
// be non-empty, and a *Spec must set exactly one of Run (one-shot) and
// RunSeq (sequential).
func (r *Registry) Register(s Scenario) error {
	if s == nil {
		return fmt.Errorf("scenario: register nil scenario")
	}
	name := s.Name()
	if name == "" {
		return fmt.Errorf("scenario: register with empty name")
	}
	if s.Family() == "" {
		return fmt.Errorf("scenario: register %q with empty family", name)
	}
	if sp, ok := s.(*Spec); ok && (sp.Run == nil) == (sp.RunSeq == nil) {
		return fmt.Errorf("scenario: register %q: set exactly one of Run (one-shot) and RunSeq (sequential)", name)
	}
	key := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, dup := r.byName[key]; dup {
		return fmt.Errorf("scenario: name %q already registered (as %q)", name, prev.Name())
	}
	r.byName[key] = s
	return nil
}

// MustRegister is Register panicking on error — for init-time catalog
// registration, where a duplicate is a programming error.
func (r *Registry) MustRegister(s Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Lookup finds a scenario by name, case-insensitively.
func (r *Registry) Lookup(name string) (Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byName[strings.ToLower(name)]
	return s, ok
}

// All returns every registered scenario in deterministic order: families
// in FamilyOrder ranking (unknown families after, alphabetically), names
// alphabetically within a family.
func (r *Registry) All() []Scenario {
	r.mu.RLock()
	out := make([]Scenario, 0, len(r.byName))
	for _, s := range r.byName {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		fi, fj := out[i].Family(), out[j].Family()
		if fi != fj {
			ri, rj := familyRank(fi), familyRank(fj)
			if ri != rj {
				return ri < rj
			}
			return fi < fj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// ByFamily returns the registered scenarios of one family (matched
// case-insensitively), in All's deterministic order.
func (r *Registry) ByFamily(family string) []Scenario {
	var out []Scenario
	for _, s := range r.All() {
		if strings.EqualFold(s.Family(), family) {
			out = append(out, s)
		}
	}
	return out
}

// Families returns the distinct families with at least one registered
// scenario, in FamilyOrder ranking.
func (r *Registry) Families() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range r.All() {
		if !seen[s.Family()] {
			seen[s.Family()] = true
			out = append(out, s.Family())
		}
	}
	return out
}

// Names returns every registered scenario name in All's order.
func (r *Registry) Names() []string {
	all := r.All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name()
	}
	return out
}

// Len reports the number of registered scenarios.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

func familyRank(f string) int {
	for i, known := range FamilyOrder {
		if known == f {
			return i
		}
	}
	return len(FamilyOrder)
}

// Default is the process-wide registry the catalog files self-register
// into and the sweep enumerates.
var Default = NewRegistry()

// Register adds a scenario to the default registry.
func Register(s Scenario) error { return Default.Register(s) }

// MustRegister adds a scenario to the default registry, panicking on
// error.
func MustRegister(s Scenario) { Default.MustRegister(s) }

// Lookup finds a scenario in the default registry, case-insensitively.
func Lookup(name string) (Scenario, bool) { return Default.Lookup(name) }

// All enumerates the default registry in deterministic order.
func All() []Scenario { return Default.All() }

// ByFamily enumerates one family of the default registry.
func ByFamily(family string) []Scenario { return Default.ByFamily(family) }

// Families lists the default registry's populated families.
func Families() []string { return Default.Families() }
