package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

// AllArchitectures lists the sweepable architecture keys in the paper's
// Section 3 order (high-end to embedded).
var AllArchitectures = scenario.Architectures

// AllAttackFamilies lists the sweepable attack families: the paper's
// Section 4.1 (cache side channels), Section 4.2 (transient execution)
// and Section 5 (classical physical).
var AllAttackFamilies = scenario.FamilyOrder

// SweepExperiments enumerates the scenario × architecture × defense grid
// as engine jobs: for every requested (scenario, architecture, defense
// selection) triple, one experiment that mounts the registered scenario
// against the selected mitigation configuration — or reports the paper's
// reason when the scenario or the defense has no substrate there (e.g. no
// shared caches to partition on the embedded platforms).
//
// The attacks axis accepts scenario names ("flush+reload", "clkscrew"),
// family names ("cachesca"), or any mix; the defenses axis accepts
// registered defense names ("way-partition"), "+"-joined combinations
// ("ct-aes+clock-jitter"), and the axis tokens "none" (strip everything,
// including stock wiring), "stock" (each architecture's paper wiring,
// resolved from the registry) and "all" (every cataloged defense, one
// grid layer each). All axes match case-insensitively; "all" anywhere in
// an axis selects that full axis. An empty defenses axis defaults to
// ["stock"], which reproduces the paper's §4.1 wiring. Unknown names are
// an error.
func SweepExperiments(archs, attacks, defenses []string, samples int) ([]engine.Experiment, error) {
	return SweepExperimentsWith(archs, attacks, defenses, SweepOptions{Samples: samples})
}

// SweepOptions configures how the enumerated grid cells measure.
type SweepOptions struct {
	// Samples is the per-cell sample budget (raised to each scenario's
	// floor; <= 0 defaults to 256). Under adaptive sampling it is the
	// reference budget the sequential test aims to undercut.
	Samples int
	// Adaptive, when non-nil, runs every cell through the sequential
	// verdict engine (internal/stats) under this policy: cells measure
	// in cumulative checkpoint passes that stop as soon as the verdict
	// separates to the policy's confidence, hard cells escalate up to
	// the policy's sample cap, and every applicable cell's Outcome
	// carries a stats.Decision. Nil keeps the fixed-budget behavior.
	Adaptive *stats.Policy
}

// SweepExperimentsWith is SweepExperiments with explicit options (the
// adaptive sequential-sampling engine lives behind Adaptive).
func SweepExperimentsWith(archs, attacks, defenses []string, opt SweepOptions) ([]engine.Experiment, error) {
	archs, scens, sels, err := resolveAxes(archs, attacks, defenses)
	if err != nil {
		return nil, err
	}
	maxSamples := 0
	if opt.Adaptive != nil {
		maxSamples = opt.Adaptive.MaxSamples
	}
	if err := checkBudget(opt.Samples, maxSamples); err != nil {
		return nil, err
	}
	if opt.Samples <= 0 {
		opt.Samples = defaultCellSamples
	}
	var exps []engine.Experiment
	for _, sc := range scens {
		for _, arch := range archs {
			for _, sel := range sels {
				exps = append(exps, sweepExperiment(sc, arch, sel, opt))
			}
		}
	}
	return exps, nil
}

// resolveAxes resolves the three axes of a grid selection — the one
// expansion path SweepExperimentsWith and EnumerateCells share, so the
// sweep, the CLI and the serve layer walk the same cells in the same
// order.
func resolveAxes(archs, attacks, defenses []string) ([]string, []*scenario.Spec, []defenseSel, error) {
	archs, err := expandAxis(archs, AllArchitectures, "architecture")
	if err != nil {
		return nil, nil, nil, err
	}
	scens, err := expandScenarios(attacks)
	if err != nil {
		return nil, nil, nil, err
	}
	sels, err := expandDefenses(defenses)
	if err != nil {
		return nil, nil, nil, err
	}
	return archs, scens, sels, nil
}

// expandAxis resolves one requested axis against its full set: empty
// selects everything, "all" anywhere in the list selects everything (all
// names are still validated), matching is case-insensitive, duplicates
// collapse while preserving order — experiment names must stay unique
// within a run (the engine's seeding contract keys on them).
func expandAxis(req, all []string, what string) ([]string, error) {
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

// expandScenarios resolves the attacks axis against the scenario
// registry: tokens may be family names (expanding to every scenario of
// the family) or individual scenario names, case-insensitively; "all"
// anywhere selects the whole registry. Duplicates collapse while
// preserving selection order.
func expandScenarios(req []string) ([]*scenario.Spec, error) {
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

// defenseSel is one resolved value of the -defense axis: the undefended
// baseline, the per-architecture stock wiring, or an explicit (possibly
// "+"-combined) mitigation set.
type defenseSel struct {
	// label is the canonical axis token, used in experiment names (and
	// therefore in per-job seeds): "none", "stock", "way-partition",
	// "ct-aes+clock-jitter".
	label string
	stock bool
	defs  []*defense.Spec // nil for none and stock
}

// forArch resolves the selection against one architecture, returning the
// defenses to mount and the display label for the table's defense column
// (stock shows what it resolved to, so labels cannot drift from wiring).
func (s defenseSel) forArch(arch string) ([]*defense.Spec, string) {
	if s.stock {
		ds := defense.StockFor(arch)
		if len(ds) == 0 {
			return nil, "stock (none)"
		}
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = d.Name()
		}
		return ds, "stock (" + strings.Join(names, "+") + ")"
	}
	return s.defs, s.label
}

// expandDefenses resolves the defenses axis. Tokens: "none", "stock",
// registered defense names, "+"-joined combinations thereof, and "all"
// (every registered defense, one selection each — the axis tokens are not
// implied; mix them in explicitly, e.g. "none,all"). Matching is
// case-insensitive; duplicates collapse while preserving order; an empty
// axis defaults to ["stock"].
func expandDefenses(req []string) ([]defenseSel, error) {
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
			sel, err := namedDefenseSel(tok)
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

// namedDefenseSel resolves one (possibly "+"-combined) defense token.
// The label is canonicalized by sorting the resolved names, so permuted
// combinations ("a+b" vs "b+a") collapse into one grid cell instead of
// running the same wiring twice under different labels and seeds.
func namedDefenseSel(tok string) (defenseSel, error) {
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

// resolvedKey canonically names a resolved defense set: "none" for the
// empty set, else the sorted lower-cased names joined with "+".
func resolvedKey(ds []*defense.Spec) string {
	if len(ds) == 0 {
		return "none"
	}
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = strings.ToLower(d.Name())
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// sweepCost estimates a cell's relative cost for the engine's shard
// packing: the sample budget (already raised to the scenario's floor)
// weighted by platform class — a server hierarchy costs several times an
// embedded one per sample. One-shot scenarios settle in a single mount
// regardless of budget and cost only the class weight. The estimate
// shapes scheduling exclusively; results never depend on it.
func sweepCost(sc *scenario.Spec, arch string, samples int) int {
	weight := 1
	switch scenario.ClassOf(arch) {
	case scenario.ClassServer:
		weight = 4
	case scenario.ClassMobile:
		weight = 2
	}
	if sc.RunSeq == nil {
		return weight
	}
	return samples * weight
}

// sweepExperiment builds the engine job for one (scenario, architecture,
// defense selection) cell of the grid.
func sweepExperiment(sc *scenario.Spec, arch string, sel defenseSel, opt SweepOptions) engine.Experiment {
	// Raise the budget to the scenario's declared floor so the
	// Experiment's (and the JSON report's) Samples field states the
	// cell's reference cost.
	samples := opt.Samples
	if samples < sc.Floor {
		samples = sc.Floor
	}
	defs, display := sel.forArch(arch)
	exp := engine.Experiment{
		Name:     fmt.Sprintf("sweep/%s/%s/%s/%s", sc.Family(), sc.Name(), arch, sel.label),
		Platform: scenario.ClassOf(arch),
		Arch:     arch,
		Attack:   sc.Family(),
		Defense:  display,
		Samples:  samples,
		Cost:     sweepCost(sc, arch, samples),
	}
	// The engine derives the job seed as Seed ^ FNV(Name), and Name ends
	// in the axis token — so "none" and "stock" cells with identical
	// resolved wiring (an architecture with no stock defenses) would
	// otherwise run under different noise and could diverge near verdict
	// thresholds, letting SweepDiff credit a flip to an empty defense
	// set. Cancel the name's hash and seed from the canonical resolved
	// wiring instead: identical wiring → identical noise → identical
	// measurement, under any axis spelling.
	canonical := fmt.Sprintf("sweep/%s/%s/%s/%s", sc.Family(), sc.Name(), arch, resolvedKey(defs))
	exp.Seed = engine.DeriveSeed(0, exp.Name) ^ engine.DeriveSeed(0, canonical)
	naCell := func(reason string) engine.Experiment {
		exp.Cost = 1
		exp.Run = func(*engine.Ctx) (engine.Outcome, error) {
			return engine.Outcome{
				Rows:    scenario.Cell(sc.Name(), arch, "-", "n/a"),
				Verdict: "n/a",
				Detail:  reason,
			}, nil
		}
		return exp
	}
	if ok, reason := sc.Applicable(arch); !ok {
		return naCell(reason)
	}
	for _, d := range defs {
		if ok, reason := d.Applicable(arch); !ok {
			return naCell(fmt.Sprintf("defense %s not applicable on %s: %s", d.Name(), arch, reason))
		}
	}
	exp.Run = func(ctx *engine.Ctx) (engine.Outcome, error) {
		if err := ctx.Context.Err(); err != nil {
			return engine.Outcome{}, err
		}
		env, err := scenario.NewEnvWithDefenses(arch, ctx.Samples, ctx.Seed, ctx.RNG, defs)
		if err != nil {
			return engine.Outcome{}, err
		}
		env.BindScratch(ctx.Scratch)
		if opt.Adaptive == nil {
			return sc.Mount(env)
		}
		return adaptiveCell(ctx.Context, sc, env, *opt.Adaptive, ctx.Samples)
	}
	return exp
}

// adaptiveCell measures one applicable grid cell under the sequential
// verdict engine. Sequential-sampling scenarios run cumulative
// checkpoint passes (stats.Plan); one-shot scenarios settle on a single
// mount. Pass 0 always runs under the cell's own job seed, so a pass
// that needs the full reference budget measures exactly what the fixed
// engine would — the adaptive layer changes cost, never verdicts.
// Further passes (demanded by high confidence targets or disagreeing
// passes — the escalation path) derive their seeds from the job seed and
// the pass index, keeping stopping points independent of engine
// parallelism.
//
// Cancellation is cooperative at checkpoint granularity: the context is
// checked before every pass (the caller checks it before the first),
// and each pass runs under a plan bound to it (stats.Plan.Bind), so a
// cancelled cell — a disconnected HTTP client, an expired compute
// deadline — stops extending its sample set within one SPRT checkpoint
// and surfaces the context's error instead of a truncated measurement. Cancellation never produces a partial
// verdict: the interrupted pass's outcome is discarded wholesale.
func adaptiveCell(ctx context.Context, sc *scenario.Spec, base *scenario.Env, pol stats.Policy, reference int) (engine.Outcome, error) {
	if sc.RunSeq == nil {
		out, err := sc.Mount(base)
		if err != nil {
			return out, err
		}
		dec := stats.OneShot(pol, scenario.VerdictClass(out.Verdict) == scenario.ClassBroken)
		out.Sampling = &dec
		return out, nil
	}
	t := stats.NewTest(pol, reference)
	var out engine.Outcome
	var err error
	for t.NeedMore() {
		if cerr := ctx.Err(); cerr != nil {
			return engine.Outcome{}, cerr
		}
		plan := stats.NewPlan(t.Policy(), reference).Bind(ctx)
		out, err = sc.RunSeq(base.Batch(t.Passes(), reference), plan)
		if plan.Cancelled() {
			return engine.Outcome{}, ctx.Err()
		}
		if err != nil {
			return out, err
		}
		t.Observe(scenario.VerdictClass(out.Verdict) == scenario.ClassBroken, plan.Used())
	}
	dec := t.Conclude()
	out.Sampling = &dec
	return out, nil
}

// sweepScenarioName recovers the bare scenario name from an experiment
// name of the form "sweep/<family>/<name>/<arch>/<defense>", so error
// rows align with the scenario column every successful row uses.
func sweepScenarioName(expName string) string {
	if parts := strings.Split(expName, "/"); len(parts) == 5 {
		return parts[2]
	}
	return expName
}

// sweepDefenseLabel recovers the canonical defense-axis token from an
// experiment name (the fifth path element).
func sweepDefenseLabel(expName string) string {
	if parts := strings.Split(expName, "/"); len(parts) == 5 {
		return parts[4]
	}
	return ""
}

// SweepTable renders sweep results as the familiar ASCII matrix, one row
// per (scenario, architecture, defense) cell, with the normalized
// broken/mitigated/n-a class, the sample cost (used/reference under
// adaptive sampling) and the verdict confidence in the last columns.
func SweepTable(results []engine.Result) *Table {
	t := &Table{
		Title:   "SWEEP — attack scenarios × architectures × defenses (one experiment per cell)",
		Columns: []string{"scenario", "architecture", "defense", "measurement", "verdict", "class", "samples", "conf"},
	}
	// The grid repeats most detail lines (one per architecture) and every
	// n/a reason (one per excluded architecture); note each distinct line
	// once, in first-appearance order.
	noted := map[string]bool{}
	for i := range results {
		r := &results[i]
		if r.Failed() {
			t.Rows = append(t.Rows, []string{sweepScenarioName(r.Name), r.Arch, r.Experiment.Defense, "-", "ERROR: " + r.Err, "error", "-", "-"})
			continue
		}
		samples, conf := sampleCells(r)
		for _, row := range r.Rows {
			if len(row) == 4 {
				t.Rows = append(t.Rows, []string{row[0], row[1], r.Experiment.Defense, row[2], row[3], scenario.VerdictClass(row[3]), samples, conf})
			} else {
				t.Rows = append(t.Rows, row)
			}
		}
		if d := r.Detail; d != "" && !noted[d] {
			noted[d] = true
			t.Notes = append(t.Notes, d)
		}
	}
	if note := samplingNote(results); note != "" {
		t.Notes = append(t.Notes, note)
	}
	return t
}

// sampleCells renders one result's sample-cost and confidence columns:
// "used/reference" plus the sequential test's posterior for adaptive
// cells, the nominal budget and "-" for fixed ones, dashes for n/a.
func sampleCells(r *engine.Result) (samples, conf string) {
	if d := r.Sampling; d != nil {
		if d.Reference == 0 {
			// One-shot measurement: no sample dimension.
			return "1-shot", fmt.Sprintf("%.3f", d.Confidence)
		}
		return fmt.Sprintf("%d/%d", d.SamplesUsed, d.Reference), fmt.Sprintf("%.3f", d.Confidence)
	}
	if r.Verdict == "n/a" {
		return "-", "-"
	}
	return fmt.Sprintf("%d", r.Experiment.Samples), "-"
}

// samplingNote summarizes an adaptive run's realized saving across the
// given results ("" when no cell carries a sampling decision).
func samplingNote(results []engine.Result) string {
	s := engine.Summarize(results, 0)
	if s.EarlyStopped == 0 && s.Escalated == 0 {
		sampled := false
		for i := range results {
			if results[i].Sampling != nil {
				sampled = true
				break
			}
		}
		if !sampled {
			return ""
		}
	}
	if s.FixedSamples == 0 || s.TotalSamples == 0 {
		return ""
	}
	// A mitigated-heavy selection at a high confidence target can cost
	// MORE than fixed budgets (escalation passes); don't word that as a
	// saving.
	trend := fmt.Sprintf("%.1fx saving", float64(s.FixedSamples)/float64(s.TotalSamples))
	if s.TotalSamples > s.FixedSamples {
		trend = fmt.Sprintf("%.1fx the fixed cost", float64(s.TotalSamples)/float64(s.FixedSamples))
	}
	return fmt.Sprintf("adaptive sampling: %d samples vs %d fixed-budget (%s; %d cells early, %d escalated)",
		s.TotalSamples, s.FixedSamples, trend, s.EarlyStopped, s.Escalated)
}

// SweepDiff compares every defended cell of a sweep run against the
// "none" baseline of the same (scenario, architecture) pair and tabulates
// the cells the defense flips — broken→mitigated is the defense's gain,
// mitigated→broken would be a regression. The run must include the
// "none" selection on the defense axis (the CLI's -diff adds it).
func SweepDiff(results []engine.Result) (*Table, error) {
	type cell struct {
		verdict, class, display, conf string
	}
	baseline := map[string]cell{} // scenario/arch -> none cell
	type keyed struct {
		key, label string
		c          cell
	}
	var defended []keyed
	for i := range results {
		r := &results[i]
		if r.Failed() {
			continue
		}
		label := sweepDefenseLabel(r.Name)
		k := sweepScenarioName(r.Name) + "/" + r.Arch
		c := cell{verdict: r.Verdict, class: scenario.VerdictClass(r.Verdict), display: r.Experiment.Defense, conf: "-"}
		if d := r.Sampling; d != nil {
			c.conf = fmt.Sprintf("%.3f", d.Confidence)
		}
		if label == "none" {
			baseline[k] = c
			continue
		}
		defended = append(defended, keyed{key: k, label: label, c: c})
	}
	if len(baseline) == 0 {
		return nil, fmt.Errorf("sweep diff needs the \"none\" baseline on the defense axis (add -defense none,...)")
	}
	t := &Table{
		Title:   "DIFF — cells each defense flips versus the undefended baseline",
		Columns: []string{"scenario", "architecture", "defense", "none", "defended", "flip", "conf"},
	}
	flips, unchanged := 0, 0
	for _, d := range defended {
		base, ok := baseline[d.key]
		if !ok {
			continue
		}
		// n/a cells cannot flip: either the attack has no substrate (both
		// sides n/a) or the defense has none (defended side n/a).
		if base.class == scenario.ClassNA || d.c.class == scenario.ClassNA {
			continue
		}
		if base.class == d.c.class {
			unchanged++
			continue
		}
		flips++
		parts := strings.SplitN(d.key, "/", 2)
		t.Rows = append(t.Rows, []string{parts[0], parts[1], d.c.display,
			base.class, d.c.class, base.class + " -> " + d.c.class, d.c.conf})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d flipped cells, %d defended cells unchanged vs none (n/a cells excluded)", flips, unchanged))
	if note := samplingNote(results); note != "" {
		t.Notes = append(t.Notes, note)
	}
	if flips == 0 {
		t.Notes = append(t.Notes, "no cell changed class: the selected defenses do not affect the selected attacks")
	}
	return t, nil
}
