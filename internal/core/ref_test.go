package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/scenario"
)

// The map-based axis expanders the scan-based ones replaced, kept as the
// reference model the fuzz targets compare against: every accepted token
// list must resolve to the same selection, and every rejected one must
// fail with the same error text. The reference builds a canonical-name
// map and seen sets per call and looks tokens up by strings.ToLower, as
// the expanders' first version did.

func refExpandAxis(req, all []string, what string) ([]string, error) {
	canon := make(map[string]string, len(all))
	for _, v := range all {
		canon[strings.ToLower(v)] = v
	}
	useAll := len(req) == 0
	seen := map[string]bool{}
	var out []string
	for _, r := range req {
		tok := strings.ToLower(strings.TrimSpace(r))
		if tok == "" {
			continue
		}
		if tok == "all" {
			useAll = true
			continue
		}
		c, ok := canon[tok]
		if !ok {
			return nil, fmt.Errorf("unknown %s %q (want one of %s, or all)", what, r, strings.Join(all, "|"))
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	if useAll || len(out) == 0 {
		return all, nil
	}
	return out, nil
}

func refExpandScenarios(req []string) ([]*scenario.Spec, error) {
	families := map[string]bool{}
	for _, f := range scenario.Default.Families() {
		families[strings.ToLower(f)] = true
	}
	useAll := len(req) == 0
	seen := map[string]bool{}
	var out []*scenario.Spec
	add := func(s *scenario.Spec) {
		if !seen[s.Name()] {
			seen[s.Name()] = true
			out = append(out, s)
		}
	}
	for _, r := range req {
		tok := strings.ToLower(strings.TrimSpace(r))
		switch {
		case tok == "":
		case tok == "all":
			useAll = true
		case families[tok]:
			for _, s := range scenario.Default.ByFamily(tok) {
				add(s)
			}
		default:
			s, ok := scenario.Default.Lookup(tok)
			if !ok {
				return nil, fmt.Errorf("unknown attack %q (want a family [%s], a scenario name from `intrust attacks`, or all)",
					r, strings.Join(scenario.Default.Families(), "|"))
			}
			add(s)
		}
	}
	if useAll || len(out) == 0 {
		return scenario.Default.All(), nil
	}
	return out, nil
}

func refExpandDefenses(req []string) ([]defenseSel, error) {
	if len(req) == 0 {
		return []defenseSel{{label: "stock", stock: true}}, nil
	}
	var out []defenseSel
	seen := map[string]bool{}
	add := func(s defenseSel) {
		if !seen[s.label] {
			seen[s.label] = true
			out = append(out, s)
		}
	}
	useAll := false
	for _, r := range req {
		tok := strings.ToLower(strings.TrimSpace(r))
		switch tok {
		case "":
		case "all":
			useAll = true
		case "none":
			add(defenseSel{label: "none"})
		case "stock":
			add(defenseSel{label: "stock", stock: true})
		default:
			sel, err := refNamedDefenseSel(tok)
			if err != nil {
				return nil, err
			}
			add(sel)
		}
	}
	if useAll {
		for _, d := range defense.Default.All() {
			add(defenseSel{label: strings.ToLower(d.Name()), defs: []*defense.Spec{d}})
		}
	}
	if len(out) == 0 {
		return []defenseSel{{label: "stock", stock: true}}, nil
	}
	return out, nil
}

func refNamedDefenseSel(tok string) (defenseSel, error) {
	parts := strings.Split(tok, "+")
	var ds []*defense.Spec
	seen := map[string]bool{}
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		d, ok := defense.Default.Lookup(p)
		if !ok {
			return defenseSel{}, fmt.Errorf("unknown defense %q (want one of %s; none; stock; all; or a +combination)",
				p, strings.Join(defense.Default.Names(), "|"))
		}
		key := strings.ToLower(d.Name())
		if seen[key] {
			continue
		}
		seen[key] = true
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return defenseSel{}, fmt.Errorf("empty defense token %q", tok)
	}
	sort.Slice(ds, func(i, j int) bool { return strings.ToLower(ds[i].Name()) < strings.ToLower(ds[j].Name()) })
	return defenseSel{label: resolvedKey(ds), defs: ds}, nil
}

// refResolveCell is ResolveCell over the reference expanders.
func refResolveCell(scenarioTok, archTok, defenseTok string, opt CellOptions) (CellKey, error) {
	scens, err := refExpandScenarios([]string{scenarioTok})
	if err != nil {
		return CellKey{}, err
	}
	if len(scens) != 1 || strings.TrimSpace(scenarioTok) == "" || strings.EqualFold(strings.TrimSpace(scenarioTok), "all") {
		return CellKey{}, fmt.Errorf("scenario %q selects %d scenarios; a cell addresses exactly one (use /sweep for grids)", scenarioTok, len(scens))
	}
	archs, err := refExpandAxis([]string{archTok}, platform.Architectures, "architecture")
	if err != nil {
		return CellKey{}, err
	}
	if len(archs) != 1 || strings.TrimSpace(archTok) == "" || strings.EqualFold(strings.TrimSpace(archTok), "all") {
		return CellKey{}, fmt.Errorf("architecture %q selects %d architectures; a cell addresses exactly one", archTok, len(archs))
	}
	if defenseTok == "" {
		defenseTok = "stock"
	}
	sels, err := refExpandDefenses([]string{defenseTok})
	if err != nil {
		return CellKey{}, err
	}
	if len(sels) != 1 || strings.EqualFold(strings.TrimSpace(defenseTok), "all") {
		return CellKey{}, fmt.Errorf("defense %q selects %d defense configurations; a cell addresses exactly one", defenseTok, len(sels))
	}
	opt, err = opt.norm(scens[0])
	if err != nil {
		return CellKey{}, err
	}
	return CellKey{
		Scenario:   scens[0].Name(),
		Arch:       archs[0],
		Defense:    sels[0].label,
		Samples:    opt.Samples,
		Confidence: opt.Confidence,
		MaxSamples: opt.MaxSamples,
		Seed:       opt.Seed,
	}, nil
}

// sameErr reports whether two errors agree: both nil, or both non-nil
// with equal text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkAgainstRef fails t unless got and want agree on the error and,
// when both succeeded, on the selection (compared by eq).
func checkAgainstRef[T any](t *testing.T, call string, got, want []T, gotErr, wantErr error, eq func(a, b T) bool) {
	t.Helper()
	if !sameErr(gotErr, wantErr) {
		t.Fatalf("%s: error %v, reference %v", call, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", call, len(got), len(want))
	}
	for i := range got {
		if !eq(got[i], want[i]) {
			t.Fatalf("%s: value %d = %v, reference %v", call, i, got[i], want[i])
		}
	}
}

func sameSel(a, b defenseSel) bool {
	if a.label != b.label || a.stock != b.stock || len(a.defs) != len(b.defs) {
		return false
	}
	for i := range a.defs {
		if a.defs[i] != b.defs[i] {
			return false
		}
	}
	return true
}

// foldSeeds are tokens on which lower-casing and case folding disagree,
// or nearly do. strings.EqualFold folds 'ſ' (U+017F) to 's', which
// strings.ToLower leaves alone, so the resolver rejects "ſpectre-v1"
// where a folding comparison would accept it. The Kelvin sign (U+212A)
// lower-cases to a plain 'k', so "cl\u212ascrew" resolves to clkscrew
// under either comparison and must keep resolving. Every fuzz target
// seeds them with case variants, family names, "all", duplicates and
// "+"-combinations, so a resolver that switches to strings.EqualFold
// fails on the seed corpus.
var foldSeeds = []string{
	"ſpectre-v1", "flush+reload,ſpectre-v1", "cacheſca", "ſgx", "ſancus,sgx", "SGX,ſgx",
	"cl\u212ascrew", "CL\u212aSCREW,clkscrew", "mas\u212aed-aes", "clock-jitter+ct-aeſ",
	"way-partition+ſpec-barrier", "cloc\u212a-jitter+CT-AES", "ſtock", "none,ſtock",
}

func FuzzResolveCell(f *testing.F) {
	for _, seed := range []struct{ scen, arch, def string }{
		{"flush+reload", "sgx", "clock-jitter+ct-aes"},
		{"FLUSH+RELOAD", " SGX ", "CT-AES+Clock-Jitter"},
		{"Spectre-V1", "Sanctum", "NONE"},
		{"ſpectre-v1", "sgx", "none"},
		{"spectre-v1", "ſgx", "none"},
		{"spectre-v1", "sgx", "ſpec-barrier"},
		{"spectre-v1", "Keystone", "stock"},
		{"spectre-v1", "keystone", "maKed-aes"},
		{"cachesca", "sgx", "none"},
		{"cacheſca", "sgx", "none"},
		{"all", "sgx", "none"},
		{"dpa", "all", "none"},
		{"dpa", "sgx", "all"},
		{"", "sgx", ""},
		{"dpa", "", "stock"},
		{"dpa", "sgx", "none,stock"},
		{"dpa", "sgx,sgx", "none"},
		{"dpa", "sgx", "ct-aes+ct-aes"},
		{"dpa", "sgx", "+"},
		{"rowhammer", "enigma", "moat"},
	} {
		f.Add(seed.scen, seed.arch, seed.def)
	}
	f.Fuzz(func(t *testing.T, scen, arch, def string) {
		opt := CellOptions{Samples: 64}
		got, err := ResolveCell(scen, arch, def, opt)
		want, wantErr := refResolveCell(scen, arch, def, opt)
		call := fmt.Sprintf("ResolveCell(%q, %q, %q)", scen, arch, def)
		if !sameErr(err, wantErr) {
			t.Fatalf("%s: error %v, reference %v", call, err, wantErr)
		}
		if got != want {
			t.Fatalf("%s = %+v, reference %+v", call, got, want)
		}
	})
}
