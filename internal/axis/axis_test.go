package axis

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

type entry struct{ name, family string }

func (e *entry) Name() string   { return e.name }
func (e *entry) Family() string { return e.family }

// newTestRegistry returns a registry whose axis rule rejects the name
// "forbidden", standing in for the scenario and defense rules.
func newTestRegistry() *Registry[*entry] {
	return New("entry", func(e *entry) error {
		if e.name == "forbidden" {
			return errors.New("forbidden name")
		}
		return nil
	})
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := newTestRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("nil entry accepted")
	}
	if err := r.Register(&entry{"", FamilyPhysical}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(&entry{"x", ""}); err == nil {
		t.Error("empty family accepted")
	}
	if err := r.Register(&entry{"forbidden", FamilyPhysical}); err == nil {
		t.Error("entry failing the axis rule accepted")
	}
	if err := r.Register(&entry{"dup", FamilyPhysical}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&entry{"dup", FamilyPhysical}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register(&entry{"DUP", FamilyCacheSCA}); err == nil {
		t.Error("case-colliding name accepted (lookups are case-insensitive)")
	}
	if r.Len() != 1 {
		t.Errorf("registry holds %d entries after rejections, want 1", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegister of a duplicate did not panic")
		}
	}()
	r.MustRegister(&entry{"dup", FamilyPhysical})
}

func TestRegistryLookupCaseInsensitive(t *testing.T) {
	r := newTestRegistry()
	r.MustRegister(&entry{"Flush+Reload", FamilyCacheSCA})
	for _, q := range []string{"Flush+Reload", "flush+reload", "FLUSH+RELOAD"} {
		if e, ok := r.Lookup(q); !ok || e.Name() != "Flush+Reload" {
			t.Errorf("Lookup(%q) = %v, %v", q, e, ok)
		}
	}
	if _, ok := r.Lookup("rowhammer"); ok {
		t.Error("unknown name resolved")
	}
}

// TestRegistryDeterministicOrder registers in scrambled order and checks
// that All comes back in the canonical (family rank, name) order, with
// unknown families after the known ones, alphabetically — stably.
func TestRegistryDeterministicOrder(t *testing.T) {
	r := newTestRegistry()
	for _, e := range []*entry{
		{"zz", FamilyPhysical},
		{"bb", FamilyCacheSCA},
		{"q", "zeta"},
		{"mm", FamilyTransient},
		{"aa", FamilyPhysical},
		{"p", "alpha"},
		{"cc", FamilyCacheSCA},
		{"tt", FamilyAttestation},
	} {
		r.MustRegister(e)
	}
	want := []string{"bb", "cc", "mm", "aa", "zz", "tt", "p", "q"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("All order = %v, want %v", got, want)
	}
	wantFamilies := []string{FamilyCacheSCA, FamilyTransient, FamilyPhysical, FamilyAttestation, "alpha", "zeta"}
	if got := r.Families(); !reflect.DeepEqual(got, wantFamilies) {
		t.Errorf("Families = %v, want %v", got, wantFamilies)
	}
	if got := r.ByFamily("CACHESCA"); len(got) != 2 || got[0].Name() != "bb" || got[1].Name() != "cc" {
		t.Errorf("ByFamily(CACHESCA) = %v", got)
	}
	// Stable across repeated enumeration (map iteration must not leak).
	first := r.Names()
	for i := 0; i < 20; i++ {
		if got := r.Names(); !reflect.DeepEqual(got, first) {
			t.Fatalf("enumeration order changed between calls: %v vs %v", got, first)
		}
	}
}

// TestRegistryConcurrentAccess exercises the registry from many
// goroutines — meaningful under `go test -race`.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := newTestRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.MustRegister(&entry{fmt.Sprintf("s-%d-%d", g, i), FamilyOrder[i%3]})
				r.Lookup(fmt.Sprintf("s-%d-%d", g, i/2))
				r.All()
				r.ByFamily(FamilyCacheSCA)
				r.Len()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8*50 {
		t.Errorf("registry holds %d entries, want %d", r.Len(), 8*50)
	}
}

func TestApplicableCell(t *testing.T) {
	everywhere := func(string) (bool, string) { return true, "" }
	if got := ApplicableCell(everywhere); got != "all 8" {
		t.Errorf("ApplicableCell(everywhere) = %q, want \"all 8\"", got)
	}
	sgxOnly := func(arch string) (bool, string) {
		if arch == "sgx" {
			return true, ""
		}
		return false, "needs the EPC"
	}
	archs, na := ApplicableArchitectures(sgxOnly)
	if !reflect.DeepEqual(archs, []string{"sgx"}) || len(na) != 7 || na["sancus"] != "needs the EPC" {
		t.Errorf("ApplicableArchitectures(sgxOnly) = %v, %v", archs, na)
	}
	if got := ApplicableCell(sgxOnly); got != "sgx" {
		t.Errorf("ApplicableCell(sgxOnly) = %q, want \"sgx\"", got)
	}
}
