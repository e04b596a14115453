package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/tee/sgx"
)

func TestFigure1ReproducesPaperShape(t *testing.T) {
	f, err := Figure1(true)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig1Row{}
	for _, r := range f.Rows {
		rows[r.Name] = r
	}
	// Remote/local: uniformly high.
	for _, name := range []string{"remote attacks", "local attacks"} {
		r := rows[name]
		if r.Server != LevelHigh || r.Mobile != LevelHigh || r.Embedded != LevelHigh {
			t.Errorf("%s not uniformly high: %+v", name, r)
		}
	}
	// Classical physical: increases toward embedded.
	cp := rows["classical physical attacks"]
	if !(cp.Embedded > cp.Server) {
		t.Errorf("classical physical gradient wrong: %+v", cp)
	}
	// Microarchitectural: decreases toward embedded.
	ma := rows["microarchitectural attacks"]
	if !(ma.Server > ma.Embedded) {
		t.Errorf("microarchitectural gradient wrong: %+v", ma)
	}
	if ma.Server != LevelHigh || ma.Embedded != LevelLow {
		t.Errorf("microarchitectural endpoints wrong: %+v", ma)
	}
	// Requirements: performance decreases, energy importance increases.
	if !(f.PerfMIPS[0] > f.PerfMIPS[1] && f.PerfMIPS[1] > f.PerfMIPS[2]) {
		t.Errorf("performance ordering wrong: %v", f.PerfMIPS)
	}
	if !(f.BudgetW[0] > f.BudgetW[1] && f.BudgetW[1] > f.BudgetW[2]) {
		t.Errorf("budget ordering wrong: %v", f.BudgetW)
	}
	out := f.Render()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "██") {
		t.Error("render missing heatmap content")
	}
}

func TestTable2MatchesPaperClaims(t *testing.T) {
	tab, err := Table2Architectures()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("architectures = %d, want 8", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	col := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %q missing", name)
		return -1
	}
	sgxRow := byName["Intel SGX (model)"]
	sanctumRow := byName["Sanctum (model)"]
	tzRow := byName["ARM TrustZone (model)"]
	sancRow := byName["Sanctuary (model)"]
	smartRow := byName["SMART (model)"]

	// SGX: encrypted bus, DMA blocked, no cache defense, multi-enclave.
	if sgxRow[col("bus snoop")] != "blocked" {
		t.Error("SGX bus snoop should be blocked (MEE)")
	}
	if sgxRow[col("cache defense")] != "none" {
		t.Error("SGX should declare no cache defense")
	}
	// Sanctum: bus snoop LEAKS (no encryption), DMA blocked, partition.
	if sanctumRow[col("bus snoop")] != "LEAKS" {
		t.Error("Sanctum bus snoop should leak (no memory encryption)")
	}
	if sanctumRow[col("DMA attack")] != "blocked" {
		t.Error("Sanctum DMA should be blocked")
	}
	if sanctumRow[col("cache defense")] != "llc-partition" {
		t.Error("Sanctum cache defense wrong")
	}
	// TrustZone: single enclave.
	if tzRow[col("multi-enclave")] != "-" {
		t.Error("TrustZone should be single-enclave")
	}
	// Sanctuary: multi-enclave with exclusion.
	if sancRow[col("multi-enclave")] != "yes" || sancRow[col("cache defense")] != "cache-exclusion" {
		t.Error("Sanctuary row wrong")
	}
	// SMART: no isolation probes, attestation verified.
	if smartRow[col("OS access")] != "n/a" {
		t.Error("SMART has no enclave to probe")
	}
	// All enclave-bearing architectures keep the OS out.
	for name, row := range byName {
		if row[col("OS access")] == "LEAKS" && name != "SMART (model)" {
			t.Errorf("%s leaks to OS access", name)
		}
	}
}

// TestArchProbesReplayKeys pins the fused-root contract TAB2 renders
// from: every probe assembles a fresh platform (zero fuse), and every key
// it carries derives from that fuse, so building a probe twice yields the
// same key material — the attestation key, the report MAC of the probe
// enclave (Sancus's module key has no other window), and SGX's quoting
// seed.
func TestArchProbesReplayKeys(t *testing.T) {
	keys := func(ap *archProbe) []byte {
		k := append([]byte{}, ap.attestKey...)
		if ap.enclave != nil {
			r, err := ap.enclave.Attest([]byte("replay"))
			if err != nil {
				t.Fatal(err)
			}
			k = append(k, r.MAC...)
		}
		if s, ok := ap.arch.(*sgx.SGX); ok {
			k = append(k, s.QuotingPublic().PrivateBytes()...)
		}
		return k
	}
	for _, b := range archBuilders() {
		t.Run(b.key, func(t *testing.T) {
			var got [2][]byte
			for i := range got {
				ap, err := b.build()
				if err != nil {
					t.Fatal(err)
				}
				got[i] = keys(ap)
				ap.arch.Platform().Mem.Release()
			}
			if len(got[0]) == 0 {
				t.Fatal("probe exposes no key material")
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Fatalf("rebuilt probe keys differ:\n%x\n%x", got[0], got[1])
			}
		})
	}
}

func TestTable3ShapesMatchSection41(t *testing.T) {
	tab, err := Table3CacheSCA(200)
	if err != nil {
		t.Fatal(err)
	}
	verdictOf := func(attack, defense string) string {
		for _, r := range tab.Rows {
			if r[0] == attack && strings.Contains(r[1], defense) {
				return r[3]
			}
		}
		t.Fatalf("row %s/%s missing", attack, defense)
		return ""
	}
	if verdictOf("flush+reload", "none") != "ATTACK SUCCEEDS" {
		t.Error("Flush+Reload should succeed undefended")
	}
	if verdictOf("prime+probe", "none") != "ATTACK SUCCEEDS" {
		t.Error("Prime+Probe should succeed undefended")
	}
	if verdictOf("prime+probe", "LLC partition") != "defense holds" {
		t.Error("Sanctum partition should hold")
	}
	if verdictOf("prime+probe", "randomized") != "defense holds" {
		t.Error("randomized mapping should hold")
	}
	if verdictOf("prime+probe", "cache exclusion") != "defense holds" {
		t.Error("Sanctuary exclusion should hold")
	}
	if verdictOf("tlb prime+probe", "shared TLB") != "ATTACK SUCCEEDS" {
		t.Error("TLB attack should succeed on shared TLB")
	}
	if verdictOf("btb shadowing", "shared predictor") != "ATTACK SUCCEEDS" {
		t.Error("BTB shadowing should succeed")
	}
}

func TestTable4ShapesMatchSection42(t *testing.T) {
	tab, err := Table4Transient(6)
	if err != nil {
		t.Fatal(err)
	}
	verdictOf := func(attack, config string) string {
		for _, r := range tab.Rows {
			if r[0] == attack && strings.Contains(r[1], config) {
				return r[3]
			}
		}
		t.Fatalf("row %s/%s missing", attack, config)
		return ""
	}
	leaks := map[[2]string]string{
		{"spectre-pht", "high-end"}:      "LEAKS",
		{"spectre-pht", "fence"}:         "blocked",
		{"spectre-pht", "in-order"}:      "blocked",
		{"spectre-btb", "shared"}:        "LEAKS",
		{"spectre-btb", "IBPB"}:          "blocked",
		{"ret2spec", "shared RSB"}:       "LEAKS",
		{"meltdown", "fault-forwarding"}: "LEAKS",
		{"meltdown", "fixed"}:            "blocked",
		{"foreshadow", "L1TF silicon"}:   "LEAKS",
		{"foreshadow", "L1-flush"}:       "blocked",
	}
	for k, want := range leaks {
		if got := verdictOf(k[0], k[1]); got != want {
			t.Errorf("%s/%s = %s, want %s", k[0], k[1], got, want)
		}
	}
}

func TestTable5ShapesMatchSection5(t *testing.T) {
	tab, err := Table5Physical(true)
	if err != nil {
		t.Fatal(err)
	}
	verdictOf := func(attack, target string) string {
		for _, r := range tab.Rows {
			if strings.Contains(r[0], attack) && strings.Contains(r[1], target) {
				return r[3]
			}
		}
		t.Fatalf("row %s/%s missing", attack, target)
		return ""
	}
	want := map[[2]string]string{
		{"timing", "square-and-multiply"}: "KEY RECOVERED",
		{"timing", "ladder"}:              "blocked",
		{"CPA", "unprotected"}:            "KEY RECOVERED",
		{"CPA", "masking"}:                "blocked",
		{"DFA", "unprotected"}:            "KEY RECOVERED",
		{"DFA", "redundant"}:              "blocked",
		{"RSA-CRT", "unprotected"}:        "KEY RECOVERED",
		{"CLKSCREW", "secure-world"}:      "KEY RECOVERED",
		{"CLKSCREW", "nominal"}:           "blocked",
	}
	for k, v := range want {
		if got := verdictOf(k[0], k[1]); got != v {
			t.Errorf("%s/%s = %s, want %s", k[0], k[1], got, v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tab.String()
	for _, want := range []string{"T", "| a ", "| bb |", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if LevelLow.String() == LevelHigh.String() {
		t.Error("level strings collide")
	}
}
