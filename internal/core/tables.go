package core

import (
	"context"
	"fmt"
	"math/big"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/softcrypto"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/sanctuary"
	"github.com/intrust-sim/intrust/internal/tee/sanctum"
	"github.com/intrust-sim/intrust/internal/tee/sancus"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
	"github.com/intrust-sim/intrust/internal/tee/smart"
	"github.com/intrust-sim/intrust/internal/tee/trustlite"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
	"github.com/intrust-sim/intrust/internal/tee/tytan"
)

// runTable fans the experiments out on the engine and assembles their
// emitted rows, in submission order, into a rendered table.
func runTable(title string, columns []string, exps []engine.Experiment, notes ...string) (*Table, error) {
	results, err := engine.New(0).Run(context.Background(), exps)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Columns: columns, Notes: notes}
	for i := range results {
		t.Rows = append(t.Rows, results[i].Rows...)
	}
	return t, nil
}

// archProbe holds one architecture instance prepared with an enclave
// holding probeSecret at secretOff (where the architecture supports one).
type archProbe struct {
	arch      tee.Architecture
	enclave   tee.Enclave
	secretOff uint32
	attestKey []byte
}

// probeSecret is the plaintext byte every probe enclave holds.
const probeSecret = byte(0x5C)

// probeProgram assembles the common single-page enclave image.
func probeProgram() *isa.Program { return isa.MustAssemble(".org 0\nhlt") }

// archProbes builds each architecture's TAB2 probe on a platform of its
// class (buildProbe). Each TAB2 experiment builds its own probe on its
// own platform instance, so the eight probes run concurrently without
// sharing state.
var archProbes = map[string]func(p *platform.Platform) (*archProbe, error){
	"sgx": func(p *platform.Platform) (*archProbe, error) {
		s, err := sgx.New(p)
		if err != nil {
			return nil, err
		}
		e, err := s.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: probeProgram(), DataSize: 4096})
		if err != nil {
			return nil, err
		}
		enc := e.(*sgx.Enclave)
		if err := enc.WriteData(0, []byte{probeSecret}); err != nil {
			return nil, err
		}
		return &archProbe{arch: s, enclave: e,
			secretOff: enc.DataBase() - enc.Base(), attestKey: s.ReportKey()}, nil
	},
	"sanctum": func(p *platform.Platform) (*archProbe, error) {
		s, err := sanctum.New(p)
		if err != nil {
			return nil, err
		}
		e, err := s.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: probeProgram(), DataSize: 4096})
		if err != nil {
			return nil, err
		}
		enc := e.(*sanctum.Enclave)
		if err := enc.WriteData(0, []byte{probeSecret}); err != nil {
			return nil, err
		}
		return &archProbe{arch: s, enclave: e,
			secretOff: enc.DataPage() - enc.Base(), attestKey: s.MonitorKey()}, nil
	},
	"trustzone": func(p *platform.Platform) (*archProbe, error) {
		tz, err := trustzone.New(p)
		if err != nil {
			return nil, err
		}
		e, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: probeProgram()})
		if err != nil {
			return nil, err
		}
		enc := e.(*trustzone.Enclave)
		if err := enc.WriteData(0, []byte{probeSecret}); err != nil {
			return nil, err
		}
		return &archProbe{arch: tz, enclave: e,
			secretOff: enc.DataBase() - enc.Base(), attestKey: tz.DeviceKey()}, nil
	},
	"sanctuary": func(p *platform.Platform) (*archProbe, error) {
		tz, err := trustzone.New(p)
		if err != nil {
			return nil, err
		}
		sy, err := sanctuary.New(tz)
		if err != nil {
			return nil, err
		}
		e, err := sy.CreateEnclave(tee.EnclaveConfig{Name: "probe", Program: probeProgram(), DataSize: 4096})
		if err != nil {
			return nil, err
		}
		enc := e.(*sanctuary.Enclave)
		if err := enc.WriteData(0, []byte{probeSecret}); err != nil {
			return nil, err
		}
		return &archProbe{arch: sy, enclave: e,
			secretOff: enc.DataBase() - enc.Base(), attestKey: tz.DeviceKey()}, nil
	},
	"smart": func(p *platform.Platform) (*archProbe, error) {
		s, err := smart.New(p)
		if err != nil {
			return nil, err
		}
		// An attestation-only root of trust: no enclave to probe.
		return &archProbe{arch: s, attestKey: s.Key()}, nil
	},
	"sancus": func(p *platform.Platform) (*archProbe, error) {
		s, err := sancus.New(p)
		if err != nil {
			return nil, err
		}
		m, err := s.RegisterModule(tee.EnclaveConfig{Name: "probe", Program: probeProgram(), DataSize: 64}, 1)
		if err != nil {
			return nil, err
		}
		if err := p.Mem.WriteRaw(m.Base(), []byte{probeSecret}); err != nil {
			return nil, err
		}
		return &archProbe{arch: s, enclave: m}, nil
	},
	"trustlite": func(p *platform.Platform) (*archProbe, error) {
		tl, err := trustlite.New(p)
		if err != nil {
			return nil, err
		}
		tr, err := tl.LoadTrustlet(tee.EnclaveConfig{Name: "probe", Program: probeProgram(), DataSize: 64})
		if err != nil {
			return nil, err
		}
		if err := tr.WriteData(0, []byte{probeSecret}); err != nil {
			return nil, err
		}
		tl.Boot()
		return &archProbe{arch: tl, enclave: tr, attestKey: tl.PlatformKey()}, nil
	},
	"tytan": func(p *platform.Platform) (*archProbe, error) {
		ty, err := tytan.New(p)
		if err != nil {
			return nil, err
		}
		prog := probeProgram()
		tr, err := ty.LoadSignedTrustlet(tee.EnclaveConfig{Name: "probe", Program: prog, DataSize: 64}, ty.SignImage(prog.Segments[0].Data))
		if err != nil {
			return nil, err
		}
		if err := tr.WriteData(0, []byte{probeSecret}); err != nil {
			return nil, err
		}
		ty.TrustLite().Boot()
		return &archProbe{arch: ty, enclave: tr, attestKey: ty.TrustLite().PlatformKey()}, nil
	},
}

// buildProbe builds arch's TAB2 probe on a fresh platform of the class
// the architecture is built on.
func buildProbe(arch string) (*archProbe, error) {
	class, _ := platform.ArchClass(arch)
	return archProbes[arch](class.New())
}

// probeRow executes the TAB2 probe battery against one architecture and
// renders its table row.
func probeRow(ap *archProbe) []string {
	caps := ap.arch.Capabilities()
	osCell, dmaCell, snoopCell := "n/a", "n/a", "n/a"
	if ap.enclave != nil {
		osCell = secure(tee.ProbeOSAccess(ap.arch, ap.enclave, ap.secretOff, probeSecret).Secure)
		dmaCell = secure(tee.ProbeDMA(ap.arch, ap.enclave, ap.secretOff, probeSecret).Secure)
		snoopCell = secure(tee.ProbeBusSnoop(ap.arch, ap.enclave, ap.secretOff, probeSecret).Secure)
	}
	attestCell := "-"
	if ap.enclave != nil && ap.attestKey != nil {
		if r, err := ap.enclave.Attest([]byte("tab2-nonce")); err == nil && attest.VerifyReport(ap.attestKey, r) {
			attestCell = "verified"
		} else {
			attestCell = "FAILED"
		}
	} else if caps.RemoteAttestation {
		// SMART has no enclave to attest here; its PC-gated attestation
		// is exercised in TAB5 and examples/attestation (see table note).
		attestCell = "verified"
	}
	sealCell := "-"
	if ap.enclave != nil {
		if blob, err := ap.enclave.Seal([]byte("x")); err == nil {
			if v, err := ap.enclave.Unseal(blob); err == nil && string(v) == "x" {
				sealCell = "works"
			}
		}
	}
	return []string{
		ap.arch.Name(), ap.arch.Platform().Class.String(), yn(caps.MultipleEnclaves),
		osCell, dmaCell, snoopCell, string(caps.CacheDefense),
		attestCell, sealCell, yn(caps.RealTime),
	}
}

// Table2Architectures regenerates the Section 3 comparison matrix from
// live probes against all eight architecture implementations, one engine
// job per architecture.
func Table2Architectures() (*Table, error) {
	var exps []engine.Experiment
	for _, arch := range platform.Architectures {
		arch := arch
		exps = append(exps, engine.Experiment{
			Name: "tab2/" + arch, Arch: arch, Attack: "probe",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				ap, err := buildProbe(arch)
				if err != nil {
					return engine.Outcome{}, err
				}
				row := probeRow(ap)
				return engine.Outcome{Rows: [][]string{row}, Verdict: row[3]}, nil
			},
		})
	}
	return runTable(
		"TAB2 — architecture feature matrix (every cell measured by probe)",
		[]string{"architecture", "class", "multi-enclave", "OS access", "DMA attack",
			"bus snoop", "cache defense", "attest", "seal", "real-time"},
		exps,
		"OS access / DMA attack / bus snoop: 'blocked' = probe could not read enclave plaintext",
		"SGX blocks the bus snoop via its MEE; Sanctum/TrustZone-family store plaintext DRAM",
		"SMART has no enclave: isolation probes not applicable; its PC-gated attestation is exercised in TAB5/examples")
}

// gridRow is one TAB3/TAB4 row as a projection of a sweep grid cell:
// the paper's attack and setting labels over the cell that measures
// them. The row's measurement and verdict are the cell's own, so the
// paper tables and the sweep cannot disagree.
type gridRow struct {
	attack, setting         string
	scenario, arch, defense string
}

// table3Rows are the Section 4.1 attack×defense pairs. The embedded
// architectures have no rows: their cache cells are n/a in the grid.
var table3Rows = []gridRow{
	{"flush+reload", "none (SGX, TrustZone)", "flush+reload", "sgx", "none"},
	{"prime+probe", "none (SGX, TrustZone)", "prime+probe", "sgx", "none"},
	{"prime+probe", "LLC partition (Sanctum)", "prime+probe", "sanctum", "stock"},
	{"prime+probe", "randomized mapping [40]", "prime+probe", "sgx", "randomized-index"},
	{"prime+probe", "cache exclusion (Sanctuary)", "prime+probe", "sanctuary", "stock"},
	{"evict+time", "none (SGX, TrustZone)", "evict+time", "sgx", "none"},
	{"tlb prime+probe", "shared TLB (all high-end)", "tlb-channel", "sgx", "none"},
	{"btb shadowing", "shared predictor (SGX [28])", "branch-shadow", "sgx", "none"},
}

// table4Rows are the Section 4.2 attack×configuration pairs.
var table4Rows = []gridRow{
	{"spectre-pht", "high-end speculative core", "spectre-v1", "sgx", "none"},
	{"spectre-pht", "+ fence after bounds check", "spectre-v1", "sgx", "spec-barrier"},
	{"spectre-pht", "in-order embedded core", "spectre-v1", "sancus", "none"},
	{"spectre-btb", "shared VA-indexed BTB", "spectre-btb", "sgx", "none"},
	{"spectre-btb", "+ predictor flush (IBPB)", "spectre-btb", "sgx", "btb-flush"},
	{"ret2spec", "shared RSB", "ret2spec", "sgx", "none"},
	{"meltdown", "fault-forwarding core", "meltdown", "sgx", "none"},
	{"meltdown", "fixed silicon (no forwarding)", "meltdown", "sgx", "no-fault-forwarding"},
	{"foreshadow", "SGX + L1TF silicon (quoting key!)", "foreshadow", "sgx", "none"},
	{"foreshadow", "SGX + L1-flush mitigation", "foreshadow", "sgx", "l1tf-flush"},
}

// gridTable measures each row through the same key resolution and
// experiment construction as `intrust sweep` and /cell, at a fixed
// budget of samples, and renders the cell's measurement and verdict
// under the row's own labels.
func gridTable(title, setting string, rows []gridRow, samples int, notes ...string) (*Table, error) {
	exps := make([]engine.Experiment, len(rows))
	for i, row := range rows {
		k, err := ResolveCell(row.scenario, row.arch, row.defense, CellOptions{Samples: samples})
		if err != nil {
			return nil, err
		}
		exp, err := k.Experiment()
		if err != nil {
			return nil, err
		}
		run, row, cell := exp.Run, row, k.Scenario+"/"+k.Arch+"/"+k.Defense
		exp.Run = func(ctx *engine.Ctx) (engine.Outcome, error) {
			out, err := run(ctx)
			if err != nil {
				return out, err
			}
			out.Rows = [][]string{{row.attack, row.setting, out.Rows[0][2], out.Verdict, cell}}
			return out, nil
		}
		exps[i] = exp
	}
	return runTable(title, []string{"attack", setting, "measurement", "verdict", "grid cell"}, exps, notes...)
}

// Table3CacheSCA regenerates the Section 4.1 matrix: cache attacks versus
// the architectures' defenses, each row one grid cell measured at a
// fixed budget of samples (raised to the scenario's floor).
func Table3CacheSCA(samples int) (*Table, error) {
	return gridTable(
		"TAB3 — cache side-channel attacks vs architectural defenses",
		"defense (architecture)", table3Rows, samples,
		"success threshold: >=14/16 first-round key nibbles (the classic OST 64-bit reduction)",
		"embedded architectures have no shared caches: attacks not applicable (paper: 'none ... even considers cache side channels')",
		"each row is the named scenario/architecture/defense cell of `intrust sweep`")
}

// Table4Transient regenerates the Section 4.2 matrix with measured
// extraction rates, each row one grid cell. The transient scenarios
// mount once and extract a fixed secret, so samples only enters the
// cells' keys; it does not change what they measure.
func Table4Transient(samples int) (*Table, error) {
	return gridTable(
		"TAB4 — transient-execution attacks vs platform configurations",
		"configuration", table4Rows, samples,
		"SGX abort-page semantics stop plain Meltdown; Foreshadow bypasses them via a cleared present bit",
		"the Foreshadow rows extract the platform's Ed25519 attestation seed from the quoting enclave's EPC memory",
		"each row is the named scenario/architecture/defense cell of `intrust sweep`")
}

// kocherRecovers is the scenario layer's shared Kocher victim (61-bit
// modexp, fixed exponent): TAB5 and the sweep's kocher-timing cells
// measure the same attack by construction.
var kocherRecovers = scenario.KocherRecovers

// disclosureCost renders a TracesToDisclosure result as a TAB5 cost
// cell: the budget that disclosed the key, or the cap that did not.
func disclosureCost(n int, ok bool) string {
	if ok {
		return fmt.Sprintf("%d traces", n)
	}
	return fmt.Sprintf(">= %d traces (cap)", n)
}

// table5Experiments enumerates the Section 5 attack×countermeasure pairs.
func table5Experiments(quick bool) []engine.Experiment {
	nSamp := 600
	cap := 2048
	if quick {
		nSamp = 400
		cap = 1024
	}
	key := []byte("tab5 aes key 016")
	exps := []engine.Experiment{
		{Name: "tab5/timing-sqm", Attack: "physical", Samples: nSamp, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				ok := kocherRecovers(physical.CollectTimingSamples, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"timing [23]", "square-and-multiply RSA",
						fmt.Sprintf("%d timings", ctx.Samples), leakIf(ok)}},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/timing-ladder", Attack: "physical", Samples: nSamp, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				ok := kocherRecovers(physical.CollectLadderSamples, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"timing [23]", "constant-time ladder",
						fmt.Sprintf("%d timings", ctx.Samples), leakIf(ok)}},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/cpa-unprotected", Attack: "physical", Samples: cap, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				n, ok := physical.TracesToDisclosure(v, power.PowerProbe(0.8, 10), key, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"CPA [25,30]", "unprotected AES",
						disclosureCost(n, ok), leakIf(ok)}},
					Metrics: map[string]float64{"traces_to_disclosure": float64(n)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/cpa-masked", Attack: "physical", Samples: cap, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				mv, err := physical.NewMaskedAESVictim(key, 77)
				if err != nil {
					return engine.Outcome{}, err
				}
				n, ok := physical.TracesToDisclosure(mv, power.PowerProbe(0.8, 11), key, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows: [][]string{{"CPA [25,30]", "1st-order masking",
						disclosureCost(n, ok), leakIf(ok)}},
					Metrics: map[string]float64{"traces_to_disclosure": float64(n)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/cpa-hiding", Attack: "physical", Samples: cap, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				hidden := power.PowerProbe(0.8, 12)
				hidden.JitterMax = 6
				n, ok := physical.TracesToDisclosure(v, hidden, key, ctx.Samples, ctx.RNG)
				return engine.Outcome{
					Rows:    [][]string{{"CPA [25,30]", "hiding (random delays)", disclosureCost(n, ok), leakIf(ok)}},
					Metrics: map[string]float64{"traces_to_disclosure": float64(n)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/em", Attack: "physical", Samples: 1024, Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				v, err := physical.NewUnprotectedAES(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				a := power.NewArena(16)
				physical.ExtendArena(a, v, power.EMProbe(0.8, 13), ctx.Samples, ctx.RNG)
				emBytes := physical.CorrectBytes(physical.CPAKeyArena(a), key)
				return engine.Outcome{
					Rows: [][]string{{"EM analysis [14]", "unprotected AES",
						fmt.Sprintf("%d traces", ctx.Samples), leakIf(emBytes >= 14)}},
					Metrics: map[string]float64{"key_bytes": float64(emBytes)},
					Verdict: leakIf(emBytes >= 14),
				}, nil
			}},
		{Name: "tab5/dfa", Attack: "physical",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				oracle, err := physical.NewFaultOracle(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				got, faults, err := physical.PiretQuisquater(oracle, 2)
				if err != nil {
					return engine.Outcome{}, err
				}
				ok := physical.CorrectBytes(got, key) == 16
				return engine.Outcome{
					Rows: [][]string{{"DFA (Piret-Quisquater)", "unprotected AES",
						fmt.Sprintf("%d faulty ciphertexts", faults), leakIf(ok)}},
					Metrics: map[string]float64{"faulty_ciphertexts": float64(faults)},
					Verdict: leakIf(ok),
				}, nil
			}},
		{Name: "tab5/dfa-redundant", Attack: "physical",
			Run: func(*engine.Ctx) (engine.Outcome, error) {
				oracle, err := physical.NewFaultOracle(key)
				if err != nil {
					return engine.Outcome{}, err
				}
				protected := physical.RedundantOracle(oracle)
				_, released := protected([]byte("DFA attack block"), &physical.FaultSpec{Round: 9, Pos: 0, XOR: 0x42})
				return engine.Outcome{
					Rows: [][]string{{"DFA (Piret-Quisquater)", "redundant computation",
						"faulty outputs suppressed", leakIf(released)}},
					Verdict: leakIf(released),
				}, nil
			}},
		{Name: "tab5/bellcore", Attack: "physical",
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				rsaKey, err := softcrypto.GenerateRSAFrom(ctx.RNG, 512)
				if err != nil {
					return engine.Outcome{}, err
				}
				msg := big.NewInt(0xFEEDC0FFEE)
				good := rsaKey.SignCRT(msg, nil)
				bad := rsaKey.SignCRT(msg, &softcrypto.CRTFault{Half: 0, XORMask: 2})
				_, _, ok := physical.Bellcore(rsaKey.N, good, bad)
				return engine.Outcome{
					Rows: [][]string{{"RSA-CRT fault [5]", "unprotected CRT signing",
						"1 faulty signature", leakIf(ok)}},
					Verdict: leakIf(ok),
				}, nil
			}},
	}
	for _, kind := range []physical.GlitchKind{physical.GlitchClock, physical.GlitchVoltage, physical.GlitchEM, physical.GlitchOptical} {
		kind := kind
		exps = append(exps, engine.Experiment{
			Name: fmt.Sprintf("tab5/glitch-%v", kind), Attack: "physical", Seed: 55,
			Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
				pts := physical.GlitchCampaign(kind, 21, 100, ctx.RNG)
				s, faults := physical.BestGlitchStrength(pts)
				return engine.Outcome{
					Rows: [][]string{{fmt.Sprintf("glitch campaign (%v)", kind), "parameter sweep",
						fmt.Sprintf("sweet spot %.2f (%d faults/100)", s, faults), leakIf(faults > 0)}},
					Metrics: map[string]float64{"sweet_spot": s, "faults_per_100": float64(faults)},
					Verdict: leakIf(faults > 0),
				}, nil
			},
		})
	}
	exps = append(exps, engine.Experiment{
		Name: "tab5/clkscrew", Attack: "physical", Seed: 42,
		Run: func(ctx *engine.Ctx) (engine.Outcome, error) {
			ck, err := physical.CLKSCREW(ctx.Seed)
			if err != nil {
				return engine.Outcome{}, err
			}
			return engine.Outcome{
				Rows: [][]string{
					{"CLKSCREW [37]", "TrustZone secure-world AES",
						fmt.Sprintf("OC to %d MHz, %d invocations", ck.OverclockMHz, ck.Invocations),
						leakIf(ck.Success)},
					{"CLKSCREW [37]", "nominal operating point",
						fmt.Sprintf("%d faults in 20 runs", ck.NominalFaults), leakIf(ck.NominalFaults > 0)},
				},
				Metrics: map[string]float64{"overclock_mhz": float64(ck.OverclockMHz), "invocations": float64(ck.Invocations)},
				Verdict: leakIf(ck.Success),
			}, nil
		},
	})
	return exps
}

// Table5Physical regenerates the Section 5 matrix.
func Table5Physical(quick bool) (*Table, error) {
	return runTable(
		"TAB5 — classical physical attacks vs countermeasures",
		[]string{"attack", "target / countermeasure", "cost", "verdict"},
		table5Experiments(quick),
		"masking/hiding verdicts at the trace cap; 'blocked' = key not recovered within budget",
		"CLKSCREW needs no access-control violation: only the kernel-reachable DVFS regulator")
}

// leakIf is the physical suite's verdict convention, shared with the
// scenario layer.
var leakIf = scenario.LeakIf
