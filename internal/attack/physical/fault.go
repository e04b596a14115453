package physical

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/softcrypto"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
)

// Bellcore runs the Boneh–DeMillo–Lipton attack ([5]): one correct and one
// faulty CRT signature of the same message factor the modulus.
func Bellcore(n, good, bad *big.Int) (p, q *big.Int, ok bool) {
	diff := new(big.Int).Sub(good, bad)
	g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(diff), n)
	if g.Cmp(big.NewInt(1)) <= 0 || g.Cmp(n) == 0 {
		return nil, nil, false
	}
	return new(big.Int).Div(n, g), g, true
}

// BellcoreSingle is the variant needing only the faulty signature and the
// message: gcd(sig^e - m, n).
func BellcoreSingle(n, e, msg, bad *big.Int) (p, q *big.Int, ok bool) {
	v := new(big.Int).Exp(bad, e, n)
	v.Sub(v, msg)
	v.Mod(v, n)
	g := new(big.Int).GCD(nil, nil, v, n)
	if g.Cmp(big.NewInt(1)) <= 0 || g.Cmp(n) == 0 {
		return nil, nil, false
	}
	return new(big.Int).Div(n, g), g, true
}

// GlitchKind enumerates the injection mechanisms of Section 5: "glitches
// can be induced through the clock signal, the power supply, EM pulses or
// optical signals".
type GlitchKind uint8

const (
	GlitchClock GlitchKind = iota
	GlitchVoltage
	GlitchEM
	GlitchOptical
)

func (k GlitchKind) String() string {
	switch k {
	case GlitchClock:
		return "clock"
	case GlitchVoltage:
		return "voltage"
	case GlitchEM:
		return "em"
	case GlitchOptical:
		return "optical"
	}
	return "glitch?"
}

// glitchProfile parameterizes the fault/crash response per mechanism:
// below threshold nothing happens; around the sweet spot exploitable
// single-byte faults appear; beyond it the device mostly crashes/resets.
type glitchProfile struct {
	sweetSpot float64
	width     float64
	crashRate float64 // crash growth beyond the sweet spot
	peak      float64 // max exploitable-fault probability
}

var profiles = map[GlitchKind]glitchProfile{
	GlitchClock:   {sweetSpot: 0.55, width: 0.10, crashRate: 3.0, peak: 0.5},
	GlitchVoltage: {sweetSpot: 0.60, width: 0.12, crashRate: 2.5, peak: 0.45},
	GlitchEM:      {sweetSpot: 0.70, width: 0.08, crashRate: 4.0, peak: 0.35},
	GlitchOptical: {sweetSpot: 0.75, width: 0.05, crashRate: 5.0, peak: 0.6},
}

// GlitchResponse returns (exploitable-fault probability, crash
// probability) for a mechanism at normalized strength s in [0,1].
func GlitchResponse(kind GlitchKind, s float64) (faultProb, crashProb float64) {
	p := profiles[kind]
	faultProb = p.peak * math.Exp(-((s-p.sweetSpot)*(s-p.sweetSpot))/(2*p.width*p.width))
	if s > p.sweetSpot {
		crashProb = math.Min(1, (s-p.sweetSpot)*p.crashRate)
	}
	if s < p.sweetSpot-2*p.width {
		faultProb = 0
	}
	return faultProb, crashProb
}

// CampaignPoint is one parameter setting's outcome statistics.
type CampaignPoint struct {
	Kind     GlitchKind
	Strength float64
	Faults   int
	Crashes  int
	Silent   int
	Trials   int
}

// GlitchCampaign sweeps injection strength and tallies outcomes — the
// parameter-search phase every fault attack starts with.
func GlitchCampaign(kind GlitchKind, steps, trialsPer int, rng *rand.Rand) []CampaignPoint {
	out := make([]CampaignPoint, 0, steps)
	for i := 0; i < steps; i++ {
		s := float64(i) / float64(steps-1)
		fp, cp := GlitchResponse(kind, s)
		pt := CampaignPoint{Kind: kind, Strength: s, Trials: trialsPer}
		for t := 0; t < trialsPer; t++ {
			r := rng.Float64()
			switch {
			case r < cp:
				pt.Crashes++
			case r < cp+fp:
				pt.Faults++
			default:
				pt.Silent++
			}
		}
		out = append(out, pt)
	}
	return out
}

// BestGlitchStrength returns the strength with the most exploitable faults.
func BestGlitchStrength(points []CampaignPoint) (float64, int) {
	best, faults := 0.0, -1
	for _, p := range points {
		if p.Faults > faults {
			best, faults = p.Strength, p.Faults
		}
	}
	return best, faults
}

// CLKSCREWResult reports the end-to-end CLKSCREW run.
type CLKSCREWResult struct {
	OverclockMHz  int
	FaultProb     float64
	Invocations   int
	UsableFaults  int
	RecoveredKey  [16]byte
	Success       bool
	NominalFaults int // faults observed at the nominal operating point
}

// CLKSCREW mounts the Tang–Sethumadhavan–Stolfo attack on a TrustZone
// platform: the normal-world kernel raises the core frequency beyond the
// voltage's safe margin through the (unchecked, software-exposed) DVFS
// regulator, while repeatedly invoking a secure-world AES service. Timing
// faults corrupt the round-9 state; the collected faulty ciphertexts feed
// the Piret–Quisquater DFA, recovering the secure world's key without any
// access-control violation.
func CLKSCREW(seed int64) (*CLKSCREWResult, error) {
	return CLKSCREWDefended(seed, false)
}

// CLKSCREWDefended is CLKSCREW against a secure world whose clock is
// optionally protected by random jitter — the fault-attack countermeasure
// of Section 5 (random clock jitter / unstable internal clocks). The
// jittered clock displaces the timing-violation instant away from the
// attacker-targeted final-round datapath: faults land in a random earlier
// round, diffuse through the remaining rounds, and fail the DFA's
// single-byte round-9 fault model, so the usable-fault filter starves
// (reported as a "starved of faults" error with the partial result).
func CLKSCREWDefended(seed int64, clockJitter bool) (*CLKSCREWResult, error) {
	p := platform.NewMobile()
	tz, err := trustzone.New(p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// The secure world holds an AES key and offers an encryption service.
	secretKey := make([]byte, 16)
	rng.Read(secretKey)
	rk, err := softcrypto.ExpandKey(secretKey)
	if err != nil {
		return nil, err
	}
	const ctBuf = 0x9000 // normal-world buffer the service writes to
	plaintext := []byte("CLKSCREW test pt")
	svc := func(c *cpu.CPU, args [3]uint32) [2]uint32 {
		// The service's datapath experiences timing faults at the current
		// operating point. A fault corrupts one random byte of the
		// round-9 state (the single-byte fault model the DFA consumes;
		// faults landing elsewhere are modelled by the usable-fault
		// filter discarding them).
		var hooks *softcrypto.Hooks
		if fp := c.DVFS.FaultProb(); fp > 0 && rng.Float64() < fp {
			pos, xor := rng.Intn(16), byte(1+rng.Intn(255))
			// With clock jitter the violation instant is unpredictable:
			// the fault hits a random earlier round and diffuses into a
			// multi-byte pattern the DFA cannot use.
			faultRound := 9
			if clockJitter {
				faultRound = rng.Intn(9)
			}
			hooks = &softcrypto.Hooks{RoundIn: func(round int, s *[16]byte) {
				if round == faultRound {
					s[pos] ^= xor
				}
			}}
		}
		ct := softcrypto.Encrypt(&rk, plaintext, hooks)
		if err := p.Mem.WriteRaw(ctBuf, ct[:]); err != nil {
			return [2]uint32{1, 0}
		}
		return [2]uint32{0, 0}
	}
	tz.RegisterService(0x100, svc)

	core := p.Core(0)
	res := &CLKSCREWResult{}
	// Attacker phase 0: clean ciphertext at the nominal operating point.
	invoke := func() ([16]byte, error) {
		prog := isa.MustAssemble("smc 0x100\nhlt")
		if err := p.Mem.LoadProgram(prog); err != nil {
			return [16]byte{}, err
		}
		core.Halted = false
		core.PC = prog.Entry
		core.Priv = isa.PrivSuper // normal-world kernel
		if _, err := core.Run(1000); err != nil {
			return [16]byte{}, err
		}
		var ct [16]byte
		if err := p.Mem.ReadRaw(ctBuf, ct[:]); err != nil {
			return ct, err
		}
		return ct, nil
	}
	clean, err := invoke()
	if err != nil {
		return nil, err
	}
	// Sanity: nominal point produces no faults.
	for i := 0; i < 20; i++ {
		ct, err := invoke()
		if err != nil {
			return nil, err
		}
		if ct != clean {
			res.NominalFaults++
		}
	}
	// Attacker phase 1: overclock through the kernel-accessible regulator.
	oc := core.DVFS.MaxSafeFreqMHz(core.DVFS.VoltMV) + 120
	core.SetCSR(isa.CSRFreq, uint32(oc))
	res.OverclockMHz = oc
	res.FaultProb = core.DVFS.FaultProb()
	// Attacker phase 2: collect usable faulty ciphertexts per column.
	perColumn := map[int][][16]byte{}
	for res.Invocations = 0; res.Invocations < 4000; res.Invocations++ {
		done := true
		for c := 0; c < 4; c++ {
			if len(perColumn[c]) < 2 {
				done = false
			}
		}
		if done {
			break
		}
		ct, err := invoke()
		if err != nil {
			return nil, err
		}
		if ct == clean {
			continue
		}
		col := FaultedColumn(clean, ct)
		if col < 0 {
			continue // unusable fault pattern
		}
		if len(perColumn[col]) < 2 {
			perColumn[col] = append(perColumn[col], ct)
			res.UsableFaults++
		}
	}
	// Restore the regulator (cover tracks).
	core.SetCSR(isa.CSRFreq, uint32(core.DVFS.BaseFreqMHz))
	for c := 0; c < 4; c++ {
		if len(perColumn[c]) < 2 {
			return res, fmt.Errorf("physical: CLKSCREW starved of faults for column %d", c)
		}
	}
	// Attacker phase 3: DFA over the collected pairs.
	var k10 [16]byte
	for c := 0; c < 4; c++ {
		if n := recoverColumn(&k10, clean, perColumn[c], c); n != 1 {
			return res, fmt.Errorf("physical: CLKSCREW DFA ambiguous for column %d (%d candidates)", c, n)
		}
	}
	res.RecoveredKey = softcrypto.InvertKeySchedule(k10)
	res.Success = true
	for i := range secretKey {
		if res.RecoveredKey[i] != secretKey[i] {
			res.Success = false
		}
	}
	return res, nil
}
