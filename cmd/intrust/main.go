// Command intrust regenerates the paper's figure and comparison tables
// from live experiments on the simulator, and sweeps the registered
// attack scenarios against all architectures and mitigation
// configurations on the concurrent engine.
//
// Usage:
//
//	intrust [-quick] [fig1|arch|cachesca|transient|physical|all]
//	intrust sweep [-arch a,b|all] [-attack scenario|family,...|all] [-defense none|stock|name,...|all] [-samples N] [-confidence C] [-maxsamples N] [-parallel N] [-shard N] [-json] [-diff] [-resume dir] [-cache-secret s] [-cpuprofile f] [-memprofile f] [-mutexprofile f]
//	intrust serve [-addr :8089] [-cache N] [-cache-bytes N] [-cache-dir d] [-cache-secret s] [-warm] [-maxinflight N] [-queue N] [-seed N] [-drain 30s] [-deadline 0] [-fault plan] [-fault-seed N]
//	intrust attacks [-family f] [-markdown] [-o file]
//	intrust defenses [-family f] [-markdown] [-o file]
//	intrust attest <measure|quote|verify|tcb|policy> [-arch a] [-config none|stock] [-tcb N] [-nonce hex] [-quote b64url] [-seed N] [-revoke-arch a,b] [-revoke-attack x,y] [-revoke-samples N]
//
// The sweep's -attack flag accepts individual scenario names
// ("flush+reload", "clkscrew") as well as family names ("cachesca"),
// case-insensitively; `intrust attacks` lists the catalog. The -defense
// flag is the third grid axis: registered mitigation names
// ("way-partition"), "+"-combinations ("ct-aes+clock-jitter"), and the
// tokens none (strip even stock wiring), stock (the paper's §4.1 wiring,
// resolved from the defense registry) and all; `intrust defenses` lists
// that catalog, and -diff reports which cells each defense flips versus
// the undefended baseline.
//
// Sweeps run under the adaptive sequential-sampling verdict engine by
// default: every cell measures in cumulative checkpoint passes that stop
// as soon as its broken/mitigated verdict separates at the -confidence
// target, hard cells escalate up to the -maxsamples cap, and each row
// reports its realized sample cost and verdict confidence.
// -confidence 0 restores the fixed per-cell budget.
//
// The serve mode runs the sweep as a long-lived HTTP/JSON service
// (internal/serve): /cell and /sweep answer grid queries through a
// content-addressed result cache — the engine's deterministic per-job
// seeding makes a cached cell byte-identical to a fresh one, so
// repeated queries are O(1) — with bounded admission (429 + Retry-After
// under overload), NDJSON streaming for grid selections, Prometheus
// metrics at /metrics, and graceful drain on SIGINT/SIGTERM.
//
// The attest mode drives the remote attestation lifecycle
// (internal/attestsvc) from the command line: measure prints canonical
// enclave measurements, quote mints signed quotes, verify checks them
// against the acceptance policy (exit 0 accepted, 1 rejected), and
// tcb/policy dump the revocation state — optionally derived live from a
// sweep slice via -revoke-arch/-revoke-attack, the same feedback loop
// the serve tier's /attest endpoints run. The sweep's
// -cpuprofile/-memprofile/-mutexprofile flags write pprof profiles for
// hunting the next hot spot (see docs/PERFORMANCE.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"runtime"
	"runtime/pprof"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/fault"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/serve"
	"github.com/intrust-sim/intrust/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "smaller sample sizes (faster, noisier)")
	flag.Parse()
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	if what == "sweep" {
		os.Exit(runSweep(flag.Args()[1:]))
	}
	if what == "serve" {
		os.Exit(runServe(flag.Args()[1:]))
	}
	if what == "attacks" {
		os.Exit(runAttacks(flag.Args()[1:]))
	}
	if what == "defenses" {
		os.Exit(runDefenses(flag.Args()[1:]))
	}
	if what == "attest" {
		os.Exit(runAttest(flag.Args()[1:]))
	}
	samples := 400
	if *quick {
		samples = 150
	}
	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	selected := map[string]bool{what: true}
	if what == "all" {
		for _, k := range []string{"fig1", "arch", "cachesca", "transient", "physical"} {
			selected[k] = true
		}
	}
	any := false
	if selected["fig1"] {
		any = true
		run("FIG1", func() error {
			f, err := core.Figure1(*quick)
			if err != nil {
				return err
			}
			fmt.Print(f.Render())
			return nil
		})
	}
	if selected["arch"] {
		any = true
		run("TAB2", func() error {
			t, err := core.Table2Architectures()
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if selected["cachesca"] {
		any = true
		run("TAB3", func() error {
			t, err := core.Table3CacheSCA(samples)
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if selected["transient"] {
		any = true
		run("TAB4", func() error {
			t, err := core.Table4Transient(samples)
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if selected["physical"] {
		any = true
		run("TAB5", func() error {
			t, err := core.Table5Physical(*quick)
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want sweep|serve|attacks|defenses|attest|fig1|arch|cachesca|transient|physical|all)\n", what)
		os.Exit(2)
	}
}

// runAttacks lists the attack-scenario catalog: name, family, paper
// section, and the applicable architectures, straight from the registry.
// -markdown emits the EXPERIMENTS.md index instead (the `go generate`
// target), and -o redirects either rendering to a file.
func runAttacks(args []string) int {
	fs := flag.NewFlagSet("attacks", flag.ExitOnError)
	family := fs.String("family", "", "restrict the listing to one family ("+strings.Join(core.AllAttackFamilies, "|")+")")
	markdown := fs.Bool("markdown", false, "emit the EXPERIMENTS.md catalog index instead of the table")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)

	var rendering string
	if *markdown {
		// The markdown rendering is the go:generate EXPERIMENTS.md
		// artifact and always describes the whole catalog; a partial
		// file carrying the generated-file header would lie.
		if *family != "" {
			fmt.Fprintln(os.Stderr, "attacks: -family cannot be combined with -markdown (the index always covers the full catalog)")
			return 2
		}
		rendering = scenario.CatalogMarkdown(scenario.Default)
	} else {
		scens := scenario.Default.All()
		if *family != "" {
			if scens = scenario.Default.ByFamily(*family); len(scens) == 0 {
				fmt.Fprintf(os.Stderr, "attacks: unknown family %q (want %s)\n", *family, strings.Join(scenario.Default.Families(), "|"))
				return 2
			}
		}
		t := &core.Table{
			Title:   fmt.Sprintf("ATTACKS — %d registered scenarios (sweep selects them by name or family)", len(scens)),
			Columns: []string{"scenario", "family", "paper §", "applicable architectures"},
		}
		for _, s := range scens {
			t.Rows = append(t.Rows, []string{s.Name(), s.Family(), s.Section, axis.ApplicableCell(s.Applicable)})
			if s.Summary != "" {
				t.Notes = append(t.Notes, s.Name()+": "+s.Summary)
			}
		}
		rendering = t.String()
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(rendering), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "attacks: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Print(rendering)
	return 0
}

// runSweep fans the attack×architecture×defense cross-product out on the
// engine worker pool and renders the results as text or JSON.
func runSweep(args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	archFlag := fs.String("arch", "all", "comma-separated architectures ("+strings.Join(core.AllArchitectures, ",")+") or all")
	attackFlag := fs.String("attack", "all", "comma-separated scenario or family names (see `intrust attacks`) or all")
	defenseFlag := fs.String("defense", "stock", "comma-separated defense axis: none|stock|all, names from `intrust defenses`, or +combinations")
	samples := fs.Int("samples", 256, "sample budget per experiment (traces, probe rounds); the adaptive reference budget")
	confidence := fs.Float64("confidence", stats.DefaultConfidence,
		"adaptive sampling: per-cell verdict confidence target in [0.5,1); 0 disables adaptive sampling (fixed budgets)")
	maxSamples := fs.Int("maxsamples", 0,
		"adaptive sampling: per-cell sample cap for hard cells (0 = 4x the reference budget)")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	shard := fs.Int("shard", 0, "jobs per work-stealing shard (0 = auto); results are identical at every value")
	jsonOut := fs.Bool("json", false, "emit the machine-readable engine report instead of the text table")
	diff := fs.Bool("diff", false, "also report which cells each defense flips versus the none baseline (adds none to the axis)")
	resumeDir := fs.String("resume", "", "incremental sweep: persist cell results under this directory and recompute only changed cells on re-runs")
	resumeSecret := fs.String("cache-secret", "", "secret keying the -resume directory's authenticated envelopes")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile (after the sweep) to this file")
	mutexProfile := fs.String("mutexprofile", "", "write a pprof mutex-contention profile of the sweep to this file")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			}
		}()
	}
	if *mutexProfile != "" {
		// Rate 1 records every contended lock; the sweep is short enough
		// that full sampling stays cheap and the profile stays complete.
		runtime.SetMutexProfileFraction(1)
		defer runtime.SetMutexProfileFraction(0)
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			}
		}()
	}

	defenses := splitList(*defenseFlag)
	if *diff && *jsonOut {
		// The diff is an ASCII table; appending it to the JSON report
		// would corrupt the machine-readable stream.
		fmt.Fprintln(os.Stderr, "sweep: -diff cannot be combined with -json (the diff is a text rendering)")
		return 2
	}
	if *diff {
		// The diff view needs the undefended baseline in the grid.
		hasNone := false
		for _, d := range defenses {
			if strings.EqualFold(strings.TrimSpace(d), "none") {
				hasNone = true
			}
		}
		if !hasNone {
			defenses = append([]string{"none"}, defenses...)
		}
	}
	if *confidence != 0 && (*confidence < 0.5 || *confidence >= 1) {
		// Below even odds the sequential test is meaningless; reject
		// explicitly rather than silently clamping to 0.5.
		fmt.Fprintln(os.Stderr, "sweep: -confidence must be in [0.5,1), or 0 to disable adaptive sampling")
		return 2
	}
	eng := engine.New(*parallel)
	eng.ShardSize = *shard
	var results []engine.Result
	var runErr error
	start := time.Now()
	if *resumeDir != "" {
		// Incremental path: the grid enumerates through the same
		// canonical cell keys, reuses every authenticated on-disk
		// result, and computes only the cells whose inputs changed.
		store, err := diskcache.Open(*resumeDir, *resumeSecret)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			return 1
		}
		copt := core.CellOptions{Samples: *samples, Confidence: *confidence, MaxSamples: *maxSamples}
		var sum core.ResumeSummary
		results, sum, runErr = core.SweepResume(context.Background(), store, eng, splitList(*archFlag), splitList(*attackFlag), defenses, copt)
		if results == nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", runErr)
			return 2
		}
		fmt.Fprintf(os.Stderr, "[resume %s: %d cells — %d reused, %d computed (%d new, %d changed, %d invalid)]\n",
			*resumeDir, sum.Cells, sum.Reused, sum.Computed, sum.New, sum.Changed, sum.Invalid)
	} else {
		opt := core.SweepOptions{Samples: *samples}
		if *confidence > 0 {
			opt.Adaptive = &stats.Policy{Confidence: *confidence, MaxSamples: *maxSamples}
		}
		exps, err := core.SweepExperimentsWith(splitList(*archFlag), splitList(*attackFlag), defenses, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			return 2
		}
		results, runErr = eng.Run(context.Background(), exps)
	}
	wall := time.Since(start)
	if *jsonOut {
		rep := engine.NewReport("intrust sweep", eng.Parallel, results, wall)
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			return 1
		}
	} else {
		fmt.Print(core.SweepTable(results).String())
		s := engine.Summarize(results, wall)
		// The adaptive saving itself is already a note under the table
		// (SweepTable's samplingNote); don't render the numbers twice.
		fmt.Printf("[%d experiments on %d workers in %v (serial cost %v); %s]\n",
			s.Experiments, eng.Parallel, wall.Round(time.Millisecond),
			time.Duration(s.TotalNS).Round(time.Millisecond),
			strings.Join(s.VerdictList(), " "))
	}
	if *diff {
		dt, err := core.SweepDiff(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			return 2
		}
		fmt.Println()
		fmt.Print(dt.String())
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", runErr)
		return 1
	}
	return 0
}

// runServe runs the sweep-as-a-service HTTP API until SIGINT/SIGTERM,
// then drains gracefully: in-flight cells complete, late requests get
// 503 while the listener winds down.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8089", "listen address")
	cacheN := fs.Int("cache", 4096, "content-addressed result cache bound (entries, LRU)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result cache byte bound alongside the entry bound (0 = 256 MiB)")
	cacheDir := fs.String("cache-dir", "", "persistent result-cache directory (tamper-evident, survives restarts); empty disables the disk tier")
	cacheSecret := fs.String("cache-secret", "", "secret keying the disk tier's authenticated envelopes (share it across processes sharing -cache-dir)")
	warm := fs.Bool("warm", false, "precompute the canonical none+stock grid into the cache tiers at boot (in the background)")
	maxInFlight := fs.Int("maxinflight", 0, "concurrently computing requests (0 = GOMAXPROCS); cache hits are not limited")
	queue := fs.Int("queue", 64, "admission queue depth before requests are answered 429")
	seed := fs.Int64("seed", 0, "base engine seed cells compute under")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown bound for in-flight cells")
	deadline := fs.Duration("deadline", 0, "per-request compute deadline (0 disables); past it requests answer 503")
	faultPlan := fs.String("fault", "", "chaos fault plan, e.g. 'disk.write:p=1;engine.stall:p=0.1,delay=50ms' (see docs/RESILIENCE.md); empty disables injection")
	faultSeed := fs.Int64("fault-seed", 1, "seed of the deterministic fault schedule (same plan+seed replays identically)")
	fs.Parse(args)

	var plane *fault.Plane
	if *faultPlan != "" {
		var perr error
		if plane, perr = fault.Parse(*faultSeed, *faultPlan); perr != nil {
			fmt.Fprintf(os.Stderr, "serve: -fault: %v\n", perr)
			return 2
		}
		fmt.Printf("[fault plane armed: %v (seed %d)]\n", plane.Names(), *faultSeed)
	}
	s, err := serve.New(serve.Options{
		CacheEntries:    *cacheN,
		CacheBytes:      *cacheBytes,
		CacheDir:        *cacheDir,
		CacheSecret:     *cacheSecret,
		MaxInFlight:     *maxInFlight,
		QueueDepth:      *queue,
		Seed:            *seed,
		Faults:          plane,
		ComputeDeadline: *deadline,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	slots := *maxInFlight
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	disk := "no disk tier"
	if *cacheDir != "" {
		disk = "disk tier " + *cacheDir
	}
	fmt.Printf("[intrust serve listening on %s (cache %d entries, %s, %d compute slots, queue %d)]\n",
		*addr, *cacheN, disk, slots, *queue)
	if *warm {
		// Warm-up rides the same flights and caches as live traffic, so
		// it can run behind the listener instead of delaying readiness.
		go func() {
			start := time.Now()
			loaded, computed, werr := s.WarmUp(ctx)
			if werr != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "serve: warm-up: %v\n", werr)
				return
			}
			fmt.Printf("[warm-up: none+stock grid ready in %v (%d loaded from disk, %d computed)]\n",
				time.Since(start).Round(time.Millisecond), loaded, computed)
		}()
	}
	if err := s.ListenAndServe(ctx, *addr, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		return 1
	}
	fmt.Println("[intrust serve drained cleanly]")
	return 0
}

// runDefenses lists the mitigation catalog: name, countered family, paper
// section, designed coverage, stock architectures and the applicable
// architectures, straight from the defense registry. -markdown emits the
// docs/DEFENSES.md handbook instead (the `go generate` target), and -o
// redirects either rendering to a file.
func runDefenses(args []string) int {
	fs := flag.NewFlagSet("defenses", flag.ExitOnError)
	family := fs.String("family", "", "restrict the listing to one countered family ("+strings.Join(axis.FamilyOrder, "|")+")")
	markdown := fs.Bool("markdown", false, "emit the docs/DEFENSES.md handbook instead of the table")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)

	var rendering string
	if *markdown {
		// The markdown rendering is the go:generate docs/DEFENSES.md
		// artifact and always describes the whole catalog; a partial
		// file carrying the generated-file header would lie.
		if *family != "" {
			fmt.Fprintln(os.Stderr, "defenses: -family cannot be combined with -markdown (the handbook always covers the full catalog)")
			return 2
		}
		rendering = defense.CatalogMarkdown(defense.Default)
	} else {
		defs := defense.Default.All()
		if *family != "" {
			if defs = defense.Default.ByFamily(*family); len(defs) == 0 {
				fmt.Fprintf(os.Stderr, "defenses: unknown family %q (want %s)\n", *family, strings.Join(defense.Default.Families(), "|"))
				return 2
			}
		}
		t := &core.Table{
			Title:   fmt.Sprintf("DEFENSES — %d registered mitigations (sweep selects them via -defense)", len(defs)),
			Columns: []string{"defense", "vs family", "paper §", "blocks", "stock on", "applicable architectures"},
		}
		for _, d := range defs {
			stock := strings.Join(d.Stock, ",")
			if stock == "" {
				stock = "-"
			}
			t.Rows = append(t.Rows, []string{d.Name(), d.Family(), d.Section,
				strings.Join(d.BlocksList, ","), stock, axis.ApplicableCell(d.Applicable)})
			if d.Summary != "" {
				t.Notes = append(t.Notes, d.Name()+": "+d.Summary)
			}
		}
		rendering = t.String()
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(rendering), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "defenses: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Print(rendering)
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
