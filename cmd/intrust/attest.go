package main

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/platform"
)

// quoteWire is the text encoding quotes travel in on the command line
// and over HTTP: unpadded base64url, the same alphabet the serve tier's
// /attest endpoints use, so quotes copy-paste between the two.
var quoteWire = base64.RawURLEncoding

const attestUsage = `usage: intrust attest <measure|quote|verify|tcb|policy> [flags]

  measure  print the canonical enclave measurement for (arch, config, tcb)
  quote    mint the signed attestation quote for (arch, config, tcb)
  verify   verify a wire quote (or a freshly minted one) against the policy;
           exits 0 when accepted, 1 when rejected
  tcb      print the per-architecture TCB revocation state
  policy   dump the verifier's acceptance policy (allow-list + minimum TCB)

The -revoke-arch/-revoke-attack flags feed the policy from the sweep: the
selected none-defense grid slice is computed on the engine, and any
architecture with a broken cell has its baseline TCB revoked. Run
` + "`intrust attest <sub> -h`" + ` for per-subcommand flags.`

// runAttest is the attestation lifecycle CLI: the same measure → quote →
// verify → revoke pipeline internal/attestsvc gives the scenarios and
// the serve tier, driven from the command line. A -seed here and a
// -seed on `intrust serve` name the same device fuse
// (platform.FuseFromSeed), so quotes minted by one verify on the other.
func runAttest(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, attestUsage)
		return 2
	}
	sub := args[0]
	fs := flag.NewFlagSet("attest "+sub, flag.ExitOnError)
	arch := fs.String("arch", "", "architecture ("+strings.Join(platform.Architectures, ",")+")")
	config := fs.String("config", attestsvc.ConfigStock, "enclave defense configuration (none|stock)")
	tcb := fs.Uint("tcb", 0, "claimed TCB version (0 = the config's canonical version)")
	nonceHex := fs.String("nonce", "", "challenger nonce (hex); bound into the quote and checked on verify")
	dataHex := fs.String("data", "", "report data bound into the quote (hex)")
	quoteB64 := fs.String("quote", "", "wire quote to verify (base64url, as printed by `attest quote`)")
	seed := fs.Int64("seed", 0, "device fuse seed of the quoting keys (match `intrust serve -seed` to share them)")
	revokeArch := fs.String("revoke-arch", "", "comma-separated architectures of the sweep-driven revocation grid (empty = all when -revoke-attack is set)")
	revokeAttack := fs.String("revoke-attack", "", "comma-separated scenario or family names of the revocation grid (empty = all when -revoke-arch is set)")
	revokeSamples := fs.Int("revoke-samples", 64, "fixed per-cell sample budget of the revocation grid")
	parallel := fs.Int("parallel", 0, "worker-pool size for the revocation grid (0 = GOMAXPROCS)")
	fs.Parse(args[1:])

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "attest %s: %v\n", sub, err)
		return 1
	}
	usage := func(msg string) int {
		fmt.Fprintf(os.Stderr, "attest %s: %s\n", sub, msg)
		return 2
	}

	nonce, err := hex.DecodeString(*nonceHex)
	if err != nil {
		return usage("-nonce: not valid hex")
	}
	data, err := hex.DecodeString(*dataHex)
	if err != nil {
		return usage("-data: not valid hex")
	}
	tcbVersion := attestsvc.TCBForConfig(*config)
	if *tcb > 0 {
		tcbVersion = uint32(*tcb)
	}

	svc := attestsvc.NewService(platform.FuseFromSeed(*seed))
	if *revokeArch != "" || *revokeAttack != "" {
		archs, attacks := splitList(*revokeArch), splitList(*revokeAttack)
		if len(archs) == 0 {
			archs = []string{"all"}
		}
		if len(attacks) == 0 {
			attacks = []string{"all"}
		}
		rev, err := core.ComputeRevocations(context.Background(), archs, attacks,
			core.CellOptions{Samples: *revokeSamples, Seed: *seed}, *parallel)
		if err != nil {
			return fail(err)
		}
		svc.SetRevocations(rev)
	}

	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")

	switch sub {
	case "measure":
		if *arch == "" {
			return usage("-arch is required")
		}
		m, err := attestsvc.CanonicalMeasurement(*arch, *config, tcbVersion)
		if err != nil {
			return fail(err)
		}
		out.Encode(map[string]any{
			"arch": *arch, "config": *config, "tcb_version": tcbVersion,
			"measurement": m.Hex(),
		})
		return 0

	case "quote":
		if *arch == "" {
			return usage("-arch is required")
		}
		q, err := svc.Quote(*arch, *config, tcbVersion, nonce, data)
		if err != nil {
			return fail(err)
		}
		wire, err := q.Encode()
		if err != nil {
			return fail(err)
		}
		out.Encode(map[string]any{
			"arch": *arch, "config": *config, "tcb_version": tcbVersion,
			"measurement": q.Measurement.Hex(),
			"nonce":       hex.EncodeToString(nonce),
			"quote":       quoteWire.EncodeToString(wire),
		})
		return 0

	case "verify":
		var wire []byte
		switch {
		case *quoteB64 != "":
			if wire, err = quoteWire.DecodeString(*quoteB64); err != nil {
				return usage("-quote: not valid base64url")
			}
		case *arch != "":
			// Self-minted round trip: quote the canonical image and verify
			// it in one step — the clean-path smoke the CI job runs.
			q, err := svc.Quote(*arch, *config, tcbVersion, nonce, data)
			if err != nil {
				return fail(err)
			}
			if wire, err = q.Encode(); err != nil {
				return fail(err)
			}
		default:
			return usage("one of -quote or -arch is required")
		}
		var challenge []byte
		if *nonceHex != "" {
			challenge = nonce
		}
		vd := svc.Verify(wire, challenge)
		out.Encode(struct {
			attest.Verdict
			RevocationFP string `json:"revocation_fp"`
		}{vd, svc.Revocations().Fingerprint()})
		if !vd.OK {
			return 1
		}
		return 0

	case "tcb":
		rev := svc.Revocations()
		out.Encode(map[string]any{
			"revocation_fp": rev.Fingerprint(),
			"statuses":      rev.Statuses(),
		})
		return 0

	case "policy":
		p := svc.Policy()
		out.Encode(map[string]any{
			"enforce_tcb": p.EnforceTCB,
			"freshness":   p.Freshness,
			"min_tcb":     p.MinTCB,
			"accepted":    p.AcceptedList(),
		})
		return 0

	default:
		fmt.Fprintln(os.Stderr, attestUsage)
		return 2
	}
}
