package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/scenario"
)

// Fuzz targets for the sweep's axis-token parsers. The axes accept
// hostile input directly from the CLI (-arch/-attack/-defense), so the
// parsers must reject anything unknown with an error — never panic —
// and every accepted selection must be well-formed: no duplicates, no
// empty entries, only registered names. Each target also replays the
// input through the reference expanders of ref_test.go and requires the
// same selection and the same error text.

// splitTokens turns raw fuzz input into an axis list the way the CLI
// does: comma-separated, whitespace trimmed, empties dropped — plus the
// raw string as one extra token so unsplit junk reaches the parsers too.
func splitTokens(raw string) []string {
	toks := []string{raw}
	for _, v := range strings.Split(raw, ",") {
		if v = strings.TrimSpace(v); v != "" {
			toks = append(toks, v)
		}
	}
	return toks
}

func FuzzExpandAxis(f *testing.F) {
	for _, seed := range []string{"", "all", "ALL", "sgx", "SGX,sancus", "sgx,sgx", "enigma", " sgx ,", "all,enigma", ","} {
		f.Add(seed)
	}
	for _, seed := range foldSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		toks := splitTokens(raw)
		out, err := expandAxis(toks, platform.Architectures, "architecture")
		want, wantErr := refExpandAxis(toks, platform.Architectures, "architecture")
		checkAgainstRef(t, fmt.Sprintf("expandAxis(%q)", raw), out, want, err, wantErr, func(a, b string) bool { return a == b })
		if err != nil {
			return
		}
		if len(out) == 0 {
			t.Fatalf("expandAxis(%q) accepted an empty selection", raw)
		}
		seen := map[string]bool{}
		known := map[string]bool{}
		for _, a := range platform.Architectures {
			known[a] = true
		}
		for _, v := range out {
			if !known[v] {
				t.Fatalf("expandAxis(%q) emitted unknown architecture %q", raw, v)
			}
			if seen[v] {
				t.Fatalf("expandAxis(%q) emitted duplicate %q", raw, v)
			}
			seen[v] = true
		}
	})
}

func FuzzExpandScenarios(f *testing.F) {
	for _, seed := range []string{"", "all", "cachesca", "CACHESCA,flush+reload", "flush+reload,flush+reload",
		"rowhammer", "physical,clkscrew", "transient, ", "+", "evict+time", "Transient,PHYSICAL,all"} {
		f.Add(seed)
	}
	for _, seed := range foldSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		toks := splitTokens(raw)
		out, err := expandScenarios(toks)
		want, wantErr := refExpandScenarios(toks)
		checkAgainstRef(t, fmt.Sprintf("expandScenarios(%q)", raw), out, want, err, wantErr, func(a, b *scenario.Spec) bool { return a == b })
		if err != nil {
			return
		}
		if len(out) == 0 {
			t.Fatalf("expandScenarios(%q) accepted an empty selection", raw)
		}
		seen := map[string]bool{}
		for _, s := range out {
			if _, ok := scenario.Default.Lookup(s.Name()); !ok {
				t.Fatalf("expandScenarios(%q) emitted unregistered scenario %q", raw, s.Name())
			}
			if seen[s.Name()] {
				t.Fatalf("expandScenarios(%q) emitted duplicate %q", raw, s.Name())
			}
			seen[s.Name()] = true
		}
	})
}

func FuzzExpandDefenses(f *testing.F) {
	for _, seed := range []string{"", "all", "none", "stock", "NONE,Stock", "way-partition",
		"ct-aes+clock-jitter", "clock-jitter+CT-AES", "ct-aes+ct-aes", "moat", "+", "++", "a+", "none,all,stock",
		"way-partition+moat", " way-partition , none ", "cachesca", "ct-aes,CT-AES,ct-aes+ct-aes"} {
		f.Add(seed)
	}
	for _, seed := range foldSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		toks := splitTokens(raw)
		out, err := expandDefenses(toks)
		want, wantErr := refExpandDefenses(toks)
		checkAgainstRef(t, fmt.Sprintf("expandDefenses(%q)", raw), out, want, err, wantErr, sameSel)
		if err != nil {
			return
		}
		if len(out) == 0 {
			t.Fatalf("expandDefenses(%q) accepted an empty selection", raw)
		}
		seen := map[string]bool{}
		for _, sel := range out {
			if sel.label == "" {
				t.Fatalf("expandDefenses(%q) emitted an unlabeled selection", raw)
			}
			if seen[sel.label] {
				t.Fatalf("expandDefenses(%q) emitted duplicate selection %q", raw, sel.label)
			}
			seen[sel.label] = true
			// A named selection's label must be canonical: the sorted
			// lower-cased resolved names — the property that collapses
			// permuted "+"-combinations into one grid cell.
			if !sel.stock && sel.label != "none" {
				if want := resolvedKey(sel.defs); sel.label != want {
					t.Fatalf("expandDefenses(%q): selection label %q, want canonical %q", raw, sel.label, want)
				}
				for _, d := range sel.defs {
					if d == nil {
						t.Fatalf("expandDefenses(%q) emitted a nil defense", raw)
					}
				}
			}
		}
	})
}
