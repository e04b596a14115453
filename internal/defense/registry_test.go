package defense

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/intrust-sim/intrust/internal/axis"
)

func testSpec(name, family string) *Spec {
	return &Spec{ID: name, In: family, Section: "4.1", Summary: "test"}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(nil); err == nil {
		t.Error("nil defense accepted")
	}
	if err := r.Register(testSpec("", axis.FamilyCacheSCA)); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register(testSpec("x", "")); err == nil {
		t.Error("empty family accepted")
	}
	for _, reserved := range []string{"none", "stock", "all", "None", "ALL"} {
		if err := r.Register(testSpec(reserved, axis.FamilyCacheSCA)); err == nil {
			t.Errorf("reserved axis token %q accepted as a defense name", reserved)
		}
	}
	// Axis separators make a name unselectable ('+' splits combinations,
	// ',' splits the flag list) or corrupt experiment-name parsing ('/').
	for _, sep := range []string{"ct+mask", "a,b", "a/b"} {
		if err := r.Register(testSpec(sep, axis.FamilyCacheSCA)); err == nil {
			t.Errorf("name %q containing an axis separator accepted", sep)
		}
	}
	if err := r.Register(testSpec("dup", axis.FamilyCacheSCA)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testSpec("dup", axis.FamilyCacheSCA)); err == nil {
		t.Error("duplicate name accepted")
	}
	// Case-insensitive uniqueness: the CLI resolves the axis
	// case-insensitively, so "DUP" would be ambiguous.
	if err := r.Register(testSpec("DUP", axis.FamilyCacheSCA)); err == nil {
		t.Error("case-variant duplicate accepted")
	}
}

func TestRegistryLookupCaseInsensitive(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testSpec("Way-Partition", axis.FamilyCacheSCA))
	for _, q := range []string{"way-partition", "WAY-PARTITION", "Way-Partition"} {
		if _, ok := r.Lookup(q); !ok {
			t.Errorf("Lookup(%q) missed", q)
		}
	}
}

// TestRegistryDeterministicOrder pins the enumeration contract: family in
// axis.FamilyOrder ranking, then name — independent of registration order.
func TestRegistryDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	// Register in scrambled order.
	for _, d := range []*Spec{
		testSpec("z-phys", axis.FamilyPhysical),
		testSpec("b-cache", axis.FamilyCacheSCA),
		testSpec("a-trans", axis.FamilyTransient),
		testSpec("a-cache", axis.FamilyCacheSCA),
		testSpec("a-phys", axis.FamilyPhysical),
	} {
		r.MustRegister(d)
	}
	want := []string{"a-cache", "b-cache", "a-trans", "a-phys", "z-phys"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if got := r.Families(); !reflect.DeepEqual(got, []string{axis.FamilyCacheSCA, axis.FamilyTransient, axis.FamilyPhysical}) {
		t.Errorf("Families() = %v", got)
	}
	if got := len(r.ByFamily("cachesca")); got != 2 {
		t.Errorf("ByFamily(cachesca) = %d entries, want 2", got)
	}
}

// TestRegistryConcurrentAccess exercises the registry under the race
// detector: concurrent registrations and reads must be safe (sweep jobs
// resolve defenses while downstream users may still be registering).
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.MustRegister(testSpec(fmt.Sprintf("d%02d", i), axis.FamilyOrder[i%3]))
			r.Lookup("d00")
			r.All()
			stockFor(r, "sanctum")
			r.Len()
		}(i)
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Errorf("registry holds %d defenses, want 16", r.Len())
	}
	var cache []string
	for _, d := range r.ByFamily(axis.FamilyCacheSCA) {
		cache = append(cache, d.Name())
	}
	if !sort.StringsAreSorted(cache) {
		t.Errorf("enumeration not deterministic: %v", r.Names())
	}
}

func TestStockForDerivesFromMetadata(t *testing.T) {
	r := NewRegistry()
	wp := testSpec("wp", axis.FamilyCacheSCA)
	wp.Stock = []string{"sanctum"}
	cc := testSpec("cc", axis.FamilyCacheSCA)
	cc.Stock = []string{"sanctuary"}
	r.MustRegister(wp)
	r.MustRegister(cc)
	r.MustRegister(testSpec("free", axis.FamilyPhysical))
	if got := stockFor(r, "sanctum"); len(got) != 1 || got[0].Name() != "wp" {
		t.Errorf("stockFor(sanctum) = %v", got)
	}
	if got := stockFor(r, "sgx"); len(got) != 0 {
		t.Errorf("stockFor(sgx) = %v, want none", got)
	}
}

// raceDetectorEnabled is set by race_test.go under `go test -race`.
var raceDetectorEnabled bool

// TestStockForAllocs pins the allocation count of resolving one
// architecture's stock wiring, which every stock sweep cell and every
// cold /cell compute does: the registry hands back a copy of its kept
// order and nothing is sorted. sgx ships no stock defense, so that copy
// is the one allocation; a count above the bound means a per-call sort
// or map came back. Skipped under the race detector, whose runtime
// allocates on its own account.
func TestStockForAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const bound = 1
	if n := testing.AllocsPerRun(100, func() { StockFor("sgx") }); n > bound {
		t.Errorf("StockFor(\"sgx\") allocates %v objects per call, want at most %d", n, bound)
	}
}
