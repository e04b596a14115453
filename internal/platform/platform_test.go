package platform

import (
	"reflect"
	"testing"
)

func TestBuildAllPlatforms(t *testing.T) {
	for _, p := range []*Platform{NewServer(), NewMobile(), NewEmbedded()} {
		if len(p.Cores) == 0 {
			t.Fatalf("%s: no cores", p.Name)
		}
		if p.Ctrl == nil || p.Mem == nil || p.DMA == nil {
			t.Fatalf("%s: missing memory system", p.Name)
		}
	}
}

func TestPlatformClassProperties(t *testing.T) {
	srv, mob, emb := NewServer(), NewMobile(), NewEmbedded()
	// Speculation gradient: server yes, mobile yes, embedded no.
	if !srv.Core(0).Feat.Speculation || !mob.Core(0).Feat.Speculation {
		t.Error("high-end platforms must speculate")
	}
	if emb.Core(0).Feat.Speculation {
		t.Error("embedded platform must not speculate")
	}
	// Shared LLC only on high-end platforms.
	if srv.LLC == nil || mob.LLC == nil {
		t.Error("high-end platforms need a shared LLC")
	}
	if emb.LLC != nil {
		t.Error("embedded platform must not have a shared LLC")
	}
	// Cores on one platform share their LLC.
	if srv.Core(0).Hier.LLC != srv.Core(1).Hier.LLC {
		t.Error("server cores do not share the LLC")
	}
	// Embedded uses an MPU, not paging hardware.
	if emb.Core(0).MPU == nil {
		t.Error("embedded core lacks MPU")
	}
	if emb.Core(0).TLB != nil {
		t.Error("embedded core has a TLB")
	}
	// Boot ROM present on embedded.
	if emb.ROMSize == 0 {
		t.Error("embedded platform lacks boot ROM")
	}
}

func TestPerfScoreOrdering(t *testing.T) {
	// Figure 1's performance row: server > mobile > embedded.
	score := func(p *Platform) float64 {
		t.Helper()
		s, err := p.PerfScore()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return s
	}
	srv := score(NewServer())
	mob := score(NewMobile())
	emb := score(NewEmbedded())
	if !(srv > mob && mob > emb) {
		t.Fatalf("performance ordering violated: server %.1f, mobile %.1f, embedded %.1f MIPS",
			srv, mob, emb)
	}
}

func TestEnergyOrderingAndBudget(t *testing.T) {
	// Figure 1's energy row: embedded lives on a far smaller budget.
	srv, mob, emb := NewServer(), NewMobile(), NewEmbedded()
	if !(srv.Energy.BudgetW > mob.Energy.BudgetW && mob.Energy.BudgetW > emb.Energy.BudgetW) {
		t.Fatal("energy budget ordering violated")
	}
	for _, p := range []*Platform{srv, mob, emb} {
		if _, err := p.PerfScore(); err != nil {
			t.Fatal(err)
		}
		c := p.Core(0)
		e := p.EnergyJoules(c)
		if e <= 0 {
			t.Errorf("%s: energy = %v", p.Name, e)
		}
		if !p.FitsBudget(c) {
			t.Errorf("%s: reference workload exceeds power budget: %.3f W > %.3f W",
				p.Name, p.AvgPowerW(c), p.Energy.BudgetW)
		}
	}
}

func TestEnergyPerInstructionGradient(t *testing.T) {
	srv, emb := NewServer(), NewEmbedded()
	if srv.Energy.ALUpJ <= emb.Energy.ALUpJ {
		t.Error("server instructions should cost more energy than embedded")
	}
}

func TestMEELatencyHookWired(t *testing.T) {
	// Platform cores must route MEE latency into their miss cost so the
	// MEE-cost ablation measures something real.
	p := NewServer()
	if p.Core(0).Hier.ExtraMemLatency == nil {
		t.Fatal("ExtraMemLatency not wired")
	}
	if got := p.Core(0).Hier.ExtraMemLatency(0x1000); got != 0 {
		t.Fatalf("extra latency without MEE = %d", got)
	}
}

func TestPowerBudgetZeroCycles(t *testing.T) {
	p := NewEmbedded()
	if p.AvgPowerW(p.Core(0)) != 0 {
		t.Error("power nonzero with no cycles")
	}
}

// TestClassTable pins what each platform class carries: its constructor
// builds a platform of that class whose cores run the class's feature
// set, and its key and display name keep the spellings sweep results,
// detail lines and TAB2's class column print. Classes is Figure 1's
// column order, and every architecture key resolves to a class.
func TestClassTable(t *testing.T) {
	want := []struct {
		class     Class
		key, name string
	}{
		{ClassServer, "server", "server/desktop"},
		{ClassMobile, "mobile", "mobile"},
		{ClassEmbedded, "embedded", "embedded"},
	}
	if len(Classes) != len(want) {
		t.Fatalf("Classes = %v, want %d classes", Classes, len(want))
	}
	for i, w := range want {
		c := Classes[i]
		if c != w.class {
			t.Errorf("Classes[%d] = %v, want %v", i, c, w.class)
		}
		p := c.New()
		if p.Class != c {
			t.Errorf("%v.New() built a %v platform", c, p.Class)
		}
		if got := p.Core(0).Feat; !reflect.DeepEqual(got, c.Features()) {
			t.Errorf("%v.New() core 0 runs %+v, want %v.Features() = %+v", c, got, c, c.Features())
		}
		if c.Key() != w.key || c.String() != w.name {
			t.Errorf("class %d: Key %q, String %q; want %q, %q", c, c.Key(), c.String(), w.key, w.name)
		}
		if n := testing.AllocsPerRun(10, func() { _ = c.Key() }); n != 0 {
			t.Errorf("%v.Key() allocates %v times", c, n)
		}
	}
	if got := Class(len(want)).String(); got != "class?" {
		t.Errorf("out-of-range class prints %q, want \"class?\"", got)
	}
	for _, arch := range Architectures {
		if _, ok := ArchClass(arch); !ok {
			t.Errorf("architecture %q has no platform class", arch)
		}
	}
	if _, ok := ArchClass("bogus"); ok {
		t.Error("ArchClass resolved an unknown architecture")
	}
}
