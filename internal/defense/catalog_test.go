package defense

import (
	"reflect"
	"slices"
	"testing"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/platform"
)

// catalogNames is the contract of the shipped mitigation catalog: these
// names are stable public API (CLI -defense selectors, sweep cell labels,
// docs/DEFENSES.md anchors) — renaming one is a breaking change and
// re-rolls its cells' RNG seeds.
var catalogNames = []string{
	// against cachesca (§4.1)
	"cache-coloring", "ct-aes", "flush-on-switch", "randomized-index", "tlb-partition", "way-partition",
	// against transient (§4.2)
	"btb-flush", "l1tf-flush", "no-fault-forwarding", "spec-barrier",
	// against physical (§5)
	"clock-jitter", "crt-check", "masked-aes",
	// against attestation (§3)
	"measurement-lock", "quote-freshness", "tcb-refresh",
}

func TestCatalogNamesStable(t *testing.T) {
	if got := Default.Names(); !reflect.DeepEqual(got, catalogNames) {
		t.Errorf("catalog names = %v, want %v", got, catalogNames)
	}
}

func TestCatalogMetadataComplete(t *testing.T) {
	for _, d := range Default.All() {
		if d.Section == "" || d.Summary == "" {
			t.Errorf("%s: missing catalog metadata (section=%q summary=%q)", d.Name(), d.Section, d.Summary)
		}
		if len(d.BlocksList) == 0 {
			t.Errorf("%s: declares no blocked scenarios — a defense that stops nothing is not a defense", d.Name())
		}
		if !slices.Contains(axis.FamilyOrder, d.Family()) {
			t.Errorf("%s: unknown family %q", d.Name(), d.Family())
		}
		for _, arch := range d.Stock {
			if _, ok := platform.ArchClass(arch); !ok {
				t.Errorf("%s: stock-on unknown architecture %q", d.Name(), arch)
			}
		}
	}
}

// TestApplicabilityMatchesPaper pins each defense's architecture axis to
// the paper's platform taxonomy: the cache/TLB/predictor mechanisms and
// the fault-forwarding fix need shared microarchitectural state or an MMU
// (absent on the embedded platforms), the L1TF flush needs SGX's EPC,
// while the software countermeasures (constant-time, masking, CRT checks,
// clock jitter) and the trivially-satisfiable speculation barrier apply
// everywhere.
func TestApplicabilityMatchesPaper(t *testing.T) {
	embedded := []string{"smart", "sancus", "trustlite", "tytan"}
	highEnd := []string{"sgx", "sanctum", "trustzone", "sanctuary"}
	applicableSet := func(name string) map[string]bool {
		t.Helper()
		d, ok := Default.Lookup(name)
		if !ok {
			t.Fatalf("defense %s not registered", name)
		}
		out := map[string]bool{}
		for _, arch := range platform.Architectures {
			ok, reason := d.Applicable(arch)
			if !ok && reason == "" {
				t.Errorf("%s/%s: not applicable but no reason given", name, arch)
			}
			out[arch] = ok
		}
		return out
	}
	for _, name := range []string{"way-partition", "cache-coloring", "flush-on-switch", "randomized-index",
		"tlb-partition", "btb-flush", "no-fault-forwarding"} {
		set := applicableSet(name)
		for _, arch := range highEnd {
			if !set[arch] {
				t.Errorf("%s not applicable on %s", name, arch)
			}
		}
		for _, arch := range embedded {
			if set[arch] {
				t.Errorf("%s applicable on embedded %s (no substrate)", name, arch)
			}
		}
	}
	for _, name := range []string{"ct-aes", "masked-aes", "spec-barrier", "crt-check", "clock-jitter"} {
		for arch, ok := range applicableSet(name) {
			if !ok {
				t.Errorf("%s not applicable on %s", name, arch)
			}
		}
	}
	// The L1TF flush guards SGX's EPC and nothing else.
	for arch, ok := range applicableSet("l1tf-flush") {
		if ok != (arch == "sgx") {
			t.Errorf("l1tf-flush applicable on %s = %v, want sgx only", arch, ok)
		}
	}
	// Unknown architectures are never applicable.
	for _, d := range Default.All() {
		if ok, _ := d.Applicable("enigma"); ok {
			t.Errorf("%s applicable on unknown architecture", d.Name())
		}
	}
}

// TestStockWiringMatchesPaper pins the §4.1 stock matrix: Sanctum ships
// LLC way-partitioning, Sanctuary ships cache exclusion/coloring, and no
// other surveyed architecture ships a cataloged cache defense.
func TestStockWiringMatchesPaper(t *testing.T) {
	want := map[string][]string{
		"sanctum": {"way-partition"}, "sanctuary": {"cache-coloring"},
		"sgx": nil, "trustzone": nil, "smart": nil, "sancus": nil, "trustlite": nil, "tytan": nil,
	}
	for arch, names := range want {
		var got []string
		for _, d := range StockFor(arch) {
			got = append(got, d.Name())
		}
		if !reflect.DeepEqual(got, names) {
			t.Errorf("StockFor(%s) = %v, want %v", arch, got, names)
		}
	}
}

// TestConfigureIsPureConfigTransform checks a Configure call edits only
// the Config handed to it: two configs configured independently end up
// equivalent, and the zero config stays undefended.
func TestConfigureIsPureConfigTransform(t *testing.T) {
	d, _ := Default.Lookup("ct-aes")
	c1, err := NewConfig("sgx", 5, 9, 1, 2, 0x40000, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := NewConfig("sgx", 5, 9, 1, 2, 0x40000, 0x2000)
	d.Configure(c1)
	if !c1.ConstantTimeAES {
		t.Errorf("ct-aes did not set the constant-time knob: %+v", c1)
	}
	// The two AES knobs are independent: layering masked-aes on top must
	// not revert the cache victim to the leaky T-table implementation.
	if m, ok := Default.Lookup("masked-aes"); ok {
		m.Configure(c1)
	} else {
		t.Fatal("masked-aes not registered")
	}
	if !c1.ConstantTimeAES || !c1.MaskedAES {
		t.Errorf("ct-aes+masked-aes did not compose: %+v", c1)
	}
	if c2.ConstantTimeAES || c2.MaskedAES || c2.FlushOnSwitch || c2.SpecBarrier || c2.CRTCheck {
		t.Errorf("untouched config mutated: %+v", c2)
	}
	if _, err := NewConfig("enigma", 5, 9, 1, 2, 0, 0); err == nil {
		t.Error("unknown architecture accepted by NewConfig")
	}
}

// TestApplicableDefensesChangeWiring pins that an applicable defense is
// never a silent no-op: on every architecture where a catalog defense
// applies, Configure turns on a knob or installs a platform hook, and
// the hooks run cleanly on a freshly assembled platform of that class.
func TestApplicableDefensesChangeWiring(t *testing.T) {
	for _, d := range Default.All() {
		for _, arch := range platform.Architectures {
			if ok, _ := d.Applicable(arch); !ok {
				continue
			}
			base, err := NewConfig(arch, 5, 9, 1, 2, 0x40000, 0x2000)
			if err != nil {
				t.Fatal(err)
			}
			c := *base
			d.Configure(&c)
			if len(c.PlatformHooks) == 0 && reflect.DeepEqual(c, *base) {
				t.Errorf("%s on %s: Configure changed nothing", d.Name(), arch)
				continue
			}
			class, _ := platform.ArchClass(arch)
			c.Apply(class.New())
		}
	}
}
