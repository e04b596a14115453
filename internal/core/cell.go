package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

// CellKey is the canonical content address of one grid cell: the full
// tuple that determines a cell's measurement bit for bit under the
// engine's deterministic per-job seeding. Two requests that resolve to
// the same CellKey are guaranteed the same verdict, samples-used and
// confidence — which is what makes a cached cell exactly as trustworthy
// as a freshly computed one (the serve layer's cache soundness
// argument).
//
// Keys are canonical by construction: build them through ResolveCell or
// EnumerateCells, never by hand. Canonicalization folds every accepted
// spelling of the same cell ("Flush+Reload" vs "flush+reload",
// "clock-jitter+ct-aes" vs "ct-aes+clock-jitter", a sample budget below
// the scenario's floor) onto one key, so equivalent requests share one
// cache entry.
type CellKey struct {
	// Scenario is the registered scenario name, in registry spelling.
	Scenario string `json:"scenario"`
	// Arch is the architecture key, in platform spelling.
	Arch string `json:"arch"`
	// Defense is the canonical defense-axis label: "none", "stock", or
	// the sorted lower-cased "+"-joined mitigation names.
	Defense string `json:"defense"`
	// Samples is the effective per-cell sample budget: the requested
	// budget (default 256) raised to the scenario's floor.
	Samples int `json:"samples"`
	// Confidence is the adaptive sampling target in [0.5,1), or 0 for
	// fixed-budget measurement.
	Confidence float64 `json:"confidence"`
	// MaxSamples is the adaptive per-cell sample cap (0 = the stats
	// default); always 0 for fixed-budget keys.
	MaxSamples int `json:"max_samples,omitempty"`
	// Seed is the base engine seed the cell's job seed derives from.
	Seed int64 `json:"seed,omitempty"`
}

// cellKeyVersion tags the encoding layout; bump it when CellKey gains
// or reorders fields so stale cache entries can never be misread.
const cellKeyVersion = "v1"

// Encode renders the key as its canonical cache-address string:
// "cell|v1|scenario|arch|defense|samples|confidence|maxsamples|seed"
// with '%' and '|' percent-escaped inside the string fields. The
// encoding is injective (DecodeCellKey inverts it exactly), so distinct
// tuples can never collide on one cache entry.
func (k CellKey) Encode() string {
	return strings.Join([]string{
		"cell", cellKeyVersion,
		escapeKeyField(k.Scenario),
		escapeKeyField(k.Arch),
		escapeKeyField(k.Defense),
		strconv.Itoa(k.Samples),
		strconv.FormatFloat(k.Confidence, 'g', -1, 64),
		strconv.Itoa(k.MaxSamples),
		strconv.FormatInt(k.Seed, 10),
	}, "|")
}

// DecodeCellKey parses a string produced by Encode back into the key.
// It accepts exactly the canonical encodings: decode(encode(k)) == k
// for every key, and encode(decode(s)) == s for every string it
// accepts.
func DecodeCellKey(s string) (CellKey, error) {
	parts := strings.Split(s, "|")
	if len(parts) != 9 || parts[0] != "cell" || parts[1] != cellKeyVersion {
		return CellKey{}, fmt.Errorf("cell key %q: want 9 fields starting cell|%s", s, cellKeyVersion)
	}
	var k CellKey
	var err error
	if k.Scenario, err = unescapeKeyField(parts[2]); err != nil {
		return CellKey{}, fmt.Errorf("cell key scenario: %w", err)
	}
	if k.Arch, err = unescapeKeyField(parts[3]); err != nil {
		return CellKey{}, fmt.Errorf("cell key arch: %w", err)
	}
	if k.Defense, err = unescapeKeyField(parts[4]); err != nil {
		return CellKey{}, fmt.Errorf("cell key defense: %w", err)
	}
	if k.Samples, err = strconv.Atoi(parts[5]); err != nil {
		return CellKey{}, fmt.Errorf("cell key samples: %w", err)
	}
	if k.Confidence, err = strconv.ParseFloat(parts[6], 64); err != nil {
		return CellKey{}, fmt.Errorf("cell key confidence: %w", err)
	}
	if k.MaxSamples, err = strconv.Atoi(parts[7]); err != nil {
		return CellKey{}, fmt.Errorf("cell key maxsamples: %w", err)
	}
	if k.Seed, err = strconv.ParseInt(parts[8], 10, 64); err != nil {
		return CellKey{}, fmt.Errorf("cell key seed: %w", err)
	}
	// Numeric parsers tolerate spellings Encode never emits ("064",
	// "0.90", "+1"); re-encoding closes the loop so only the one
	// canonical string per key decodes — no two wire strings can alias
	// one cache entry.
	if enc := k.Encode(); enc != s {
		return CellKey{}, fmt.Errorf("cell key %q: non-canonical encoding (canonical %q)", s, enc)
	}
	return k, nil
}

// escapeKeyField percent-escapes the two bytes that would break the
// "|"-joined layout: '%' (the escape itself) and '|' (the separator).
func escapeKeyField(s string) string {
	if !strings.ContainsAny(s, "%|") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			b.WriteString("%25")
		case '|':
			b.WriteString("%7C")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeKeyField inverts escapeKeyField, rejecting any escape it
// would not itself produce — so the only decodable strings are
// canonical encodings.
func unescapeKeyField(s string) (string, error) {
	if !strings.Contains(s, "%") {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("truncated escape in %q", s)
		}
		switch s[i+1 : i+3] {
		case "25":
			b.WriteByte('%')
		case "7C":
			b.WriteByte('|')
		default:
			return "", fmt.Errorf("unknown escape %%%s in %q", s[i+1:i+3], s)
		}
		i += 2
	}
	return b.String(), nil
}

// CellOptions carries the measurement knobs a single-cell request
// canonicalizes into its key.
type CellOptions struct {
	// Samples is the requested per-cell budget; <= 0 selects the sweep
	// default (256). ResolveCell raises it to the scenario's floor.
	Samples int
	// Confidence is the adaptive sampling target: 0 selects
	// fixed-budget measurement, otherwise it must lie in [0.5,1) — the
	// same contract as the sweep CLI's -confidence flag.
	Confidence float64
	// MaxSamples caps a hard adaptive cell's total budget (0 = the
	// stats default); ignored (forced to 0) for fixed-budget cells.
	MaxSamples int
	// Seed is the base engine seed (the CLI always uses 0).
	Seed int64
}

// defaultCellSamples is the per-cell budget when none is requested.
const defaultCellSamples = 256

// maxCellSamples caps a cell's requested budget and adaptive sample
// cap. It sits above every scenario floor and every in-tree budget, and
// bounds the worst physical cell (4x escalation: ~65k traces of 344 B,
// 160 int16 points plus a 16-byte input and two int32 offsets) to ~28 MB
// of trace arena. An unbounded budget lets a single request grow the
// arena until the runtime dies of out-of-memory, a fatal error no
// handler can recover.
const maxCellSamples = 1 << 14

// checkBudget rejects a budget or adaptive cap above maxCellSamples.
func checkBudget(samples, maxSamples int) error {
	if samples > maxCellSamples || maxSamples > maxCellSamples {
		return fmt.Errorf("samples and maxsamples must be at most %d (got %d and %d)", maxCellSamples, samples, maxSamples)
	}
	return nil
}

// norm validates and canonicalizes the options against one scenario.
func (o CellOptions) norm(sc *scenario.Spec) (CellOptions, error) {
	if math.IsNaN(o.Confidence) || math.IsInf(o.Confidence, 0) ||
		(o.Confidence != 0 && (o.Confidence < 0.5 || o.Confidence >= 1)) {
		return o, fmt.Errorf("confidence must be in [0.5,1), or 0 for fixed budgets (got %v)", o.Confidence)
	}
	if err := checkBudget(o.Samples, o.MaxSamples); err != nil {
		return o, err
	}
	if o.Samples <= 0 {
		o.Samples = defaultCellSamples
	}
	if o.Samples < sc.Floor {
		o.Samples = sc.Floor
	}
	if o.Confidence == 0 {
		o.MaxSamples = 0
	} else if o.MaxSamples < 0 {
		o.MaxSamples = 0
	}
	return o, nil
}

// ResolveCell canonicalizes one (scenario, architecture, defense)
// request into its CellKey through the exact axis-expansion paths the
// sweep uses — expandScenarios, expandAxis and expandDefenses — so a
// spelling the CLI accepts resolves identically over HTTP and the two
// surfaces can never drift. A token that expands to more or fewer than
// one value on any axis (family names, "all", empty) is an error: a
// cell addresses exactly one grid point.
func ResolveCell(scenarioTok, archTok, defenseTok string, opt CellOptions) (CellKey, error) {
	scens, err := expandScenarios([]string{scenarioTok})
	if err != nil {
		return CellKey{}, err
	}
	if len(scens) != 1 || strings.TrimSpace(scenarioTok) == "" || strings.EqualFold(strings.TrimSpace(scenarioTok), "all") {
		return CellKey{}, fmt.Errorf("scenario %q selects %d scenarios; a cell addresses exactly one (use /sweep for grids)", scenarioTok, len(scens))
	}
	archs, err := expandAxis([]string{archTok}, AllArchitectures, "architecture")
	if err != nil {
		return CellKey{}, err
	}
	if len(archs) != 1 || strings.TrimSpace(archTok) == "" || strings.EqualFold(strings.TrimSpace(archTok), "all") {
		return CellKey{}, fmt.Errorf("architecture %q selects %d architectures; a cell addresses exactly one", archTok, len(archs))
	}
	if defenseTok == "" {
		defenseTok = "stock"
	}
	sels, err := expandDefenses([]string{defenseTok})
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

// EnumerateCells resolves a full axis selection into canonical cell
// keys, in exactly the grid order SweepExperimentsWith enumerates
// (scenario-major, then architecture, then defense) — the serve layer's
// /sweep endpoint and the CLI sweep walk the same cells in the same
// order because both resolve through this one expansion path.
func EnumerateCells(archs, attacks, defenses []string, opt CellOptions) ([]CellKey, error) {
	archList, scens, sels, err := resolveAxes(archs, attacks, defenses)
	if err != nil {
		return nil, err
	}
	keys := make([]CellKey, 0, len(scens)*len(archList)*len(sels))
	for _, sc := range scens {
		o, err := opt.norm(sc)
		if err != nil {
			return nil, err
		}
		for _, arch := range archList {
			for _, sel := range sels {
				keys = append(keys, CellKey{
					Scenario:   sc.Name(),
					Arch:       arch,
					Defense:    sel.label,
					Samples:    o.Samples,
					Confidence: o.Confidence,
					MaxSamples: o.MaxSamples,
					Seed:       o.Seed,
				})
			}
		}
	}
	return keys, nil
}

// Experiment rebuilds the engine job a canonical key addresses — the
// same construction the sweep uses, so the cell's derived job seed, and
// therefore its measurement, is bit-identical to the matching sweep
// cell's. Non-canonical keys (hand-built, or decoded from a foreign
// string) are rejected rather than silently re-canonicalized: a cache
// keyed on them would alias distinct addresses to one result.
func (k CellKey) Experiment() (engine.Experiment, error) {
	sc, ok := scenario.Default.Lookup(k.Scenario)
	if !ok || sc.Name() != k.Scenario {
		return engine.Experiment{}, fmt.Errorf("cell key: unknown or non-canonical scenario %q", k.Scenario)
	}
	archs, err := expandAxis([]string{k.Arch}, AllArchitectures, "architecture")
	if err != nil {
		return engine.Experiment{}, err
	}
	if len(archs) != 1 || archs[0] != k.Arch {
		return engine.Experiment{}, fmt.Errorf("cell key: non-canonical architecture %q", k.Arch)
	}
	sel, err := defenseSelForLabel(k.Defense)
	if err != nil {
		return engine.Experiment{}, err
	}
	o, err := CellOptions{Samples: k.Samples, Confidence: k.Confidence, MaxSamples: k.MaxSamples, Seed: k.Seed}.norm(sc)
	if err != nil {
		return engine.Experiment{}, fmt.Errorf("cell key: %w", err)
	}
	if o.Samples != k.Samples || o.MaxSamples != k.MaxSamples {
		return engine.Experiment{}, fmt.Errorf("cell key: non-canonical budget %d/%d for %s (want %d/%d)",
			k.Samples, k.MaxSamples, k.Scenario, o.Samples, o.MaxSamples)
	}
	opt := SweepOptions{Samples: k.Samples}
	if k.Confidence > 0 {
		opt.Adaptive = &stats.Policy{Confidence: k.Confidence, MaxSamples: k.MaxSamples}
	}
	exp := sweepExperiment(sc, k.Arch, sel, opt)
	// The sweep derives seeds from base 0; fold a non-zero base in the
	// same way Experiment.Seed composes with the name hash.
	exp.Seed ^= k.Seed
	return exp, nil
}

// defenseSelForLabel resolves a canonical defense-axis label back into
// the selection it names, rejecting non-canonical spellings.
func defenseSelForLabel(label string) (defenseSel, error) {
	switch label {
	case "none":
		return defenseSel{label: "none"}, nil
	case "stock":
		return defenseSel{label: "stock", stock: true}, nil
	}
	sel, err := namedDefenseSel(strings.ToLower(label))
	if err != nil {
		return defenseSel{}, err
	}
	if sel.label != label {
		return defenseSel{}, fmt.Errorf("cell key: non-canonical defense label %q (canonical %q)", label, sel.label)
	}
	return sel, nil
}

// RunCell computes the one grid cell a canonical key addresses, through
// the same experiment construction and seed derivation as the sweep —
// the serve layer's cell-level entry point. The returned result is
// bit-identical (modulo wall clock) to the matching cell of a full
// sweep run with the same options.
func RunCell(ctx context.Context, k CellKey) (engine.Result, error) {
	exp, err := k.Experiment()
	if err != nil {
		return engine.Result{}, err
	}
	return engine.RunOne(ctx, exp), nil
}
