package scenario

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/stats"
)

func testSpec(name, family string) *Spec {
	return &Spec{ID: name, In: family, Run: func(*Env) (Outcome, error) { return Outcome{}, nil }}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("nil scenario accepted")
	}
	if err := r.Register(testSpec("", axis.FamilyPhysical)); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(testSpec("x", "")); err == nil {
		t.Error("empty family accepted")
	}
	if err := r.Register(testSpec("dup", axis.FamilyPhysical)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testSpec("dup", axis.FamilyPhysical)); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register(testSpec("DUP", axis.FamilyPhysical)); err == nil {
		t.Error("case-colliding name accepted (lookups are case-insensitive)")
	}
	// A Spec is one-shot (Run) or sequential (RunSeq): both or neither
	// leaves Mount's measurement ambiguous or absent.
	both := testSpec("both", axis.FamilyPhysical)
	both.RunSeq = func(*Env, *stats.Plan) (Outcome, error) { return Outcome{}, nil }
	if err := r.Register(both); err == nil {
		t.Error("Spec with both Run and RunSeq accepted")
	}
	if err := r.Register(&Spec{ID: "neither", In: axis.FamilyPhysical}); err == nil {
		t.Error("Spec with neither Run nor RunSeq accepted")
	}
}

func TestRegistryLookupCaseInsensitive(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testSpec("Flush+Reload", axis.FamilyCacheSCA))
	for _, q := range []string{"Flush+Reload", "flush+reload", "FLUSH+RELOAD"} {
		if s, ok := r.Lookup(q); !ok || s.Name() != "Flush+Reload" {
			t.Errorf("Lookup(%q) = %v, %v", q, s, ok)
		}
	}
	if _, ok := r.Lookup("rowhammer"); ok {
		t.Error("unknown name resolved")
	}
}

// TestRegistryDeterministicOrder registers in scrambled order and checks
// that All comes back in the canonical (family rank, name) order, stably.
func TestRegistryDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, s := range []*Spec{
		testSpec("zz", axis.FamilyPhysical),
		testSpec("bb", axis.FamilyCacheSCA),
		testSpec("mm", axis.FamilyTransient),
		testSpec("aa", axis.FamilyPhysical),
		testSpec("cc", axis.FamilyCacheSCA),
	} {
		r.MustRegister(s)
	}
	want := []string{"bb", "cc", "mm", "aa", "zz"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("All order = %v, want %v", got, want)
	}
	// Stable across repeated enumeration (map iteration must not leak).
	first := r.Names()
	for i := 0; i < 20; i++ {
		if got := r.Names(); !reflect.DeepEqual(got, first) {
			t.Fatalf("enumeration order changed between calls: %v vs %v", got, first)
		}
	}
}

func TestRegistryByFamilyAndFamilies(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testSpec("p1", axis.FamilyPhysical))
	r.MustRegister(testSpec("c1", axis.FamilyCacheSCA))
	r.MustRegister(testSpec("c2", axis.FamilyCacheSCA))
	if got := r.ByFamily("CACHESCA"); len(got) != 2 || got[0].Name() != "c1" {
		t.Errorf("Default.ByFamily(CACHESCA) = %v", got)
	}
	if got := r.ByFamily("transient"); len(got) != 0 {
		t.Errorf("empty family returned %v", got)
	}
	if got := r.Families(); !reflect.DeepEqual(got, []string{axis.FamilyCacheSCA, axis.FamilyPhysical}) {
		t.Errorf("Families = %v", got)
	}
}

// TestRegistryConcurrentAccess exercises the registry from many
// goroutines — meaningful under `go test -race`.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.MustRegister(testSpec(fmt.Sprintf("s-%d-%d", g, i), FamilyOrder[i%3]))
				r.Lookup(fmt.Sprintf("s-%d-%d", g, i/2))
				r.All()
				r.ByFamily(axis.FamilyCacheSCA)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8*50 {
		t.Errorf("registry holds %d scenarios, want %d", r.Len(), 8*50)
	}
}
