// Package engine is the concurrent experiment-orchestration subsystem:
// it turns the evaluation's monolithic figure/table generators into
// composable Experiment units executed by a worker pool.
//
// An Experiment names one measurement (platform class, architecture,
// attack family, sample count) and carries a Run closure. The Engine
// schedules a slice of experiments over GOMAXPROCS workers (or an
// explicit parallelism) with sharded work-stealing: jobs group into
// shards by cost estimate, each worker drains its own deque and steals
// from the most-loaded peer when it runs dry. Every job gets its own
// deterministically derived RNG and results commit in submission order —
// so a sweep produces byte-identical results at -parallel 1 and
// -parallel N, at any shard size — and outcomes render either through
// the existing text tables or as machine-readable JSON (see report.go).
//
// Every future scaling direction (sharding experiments across processes,
// batching trace collection, multi-backend execution) plugs into this
// seam: a scheduler that consumes []Experiment and produces []Result.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/intrust-sim/intrust/internal/fault"
	"github.com/intrust-sim/intrust/internal/stats"
)

// faultPlane is the optional chaos seam: compute stalls and injected
// panics, armed per-process (the serve layer wires it from its
// Options, the CLI from -fault). Panics injected here are confined by
// runOne's recover exactly like a misbehaving scenario's would be, so
// the chaos suite can prove panic confinement end to end.
var faultPlane atomic.Pointer[fault.Plane]

// Fault-point names the engine probes (see internal/fault's catalog).
const (
	// FaultStall injects a context-aware delay before a job runs.
	FaultStall = "engine.stall"
	// FaultPanic panics inside a job's compute (confined to a failed
	// Result by the per-job recover).
	FaultPanic = "engine.panic"
)

// SetFaultPlane installs (or, with nil, removes) the process-wide
// fault-injection plane the engine probes before every job.
func SetFaultPlane(p *fault.Plane) { faultPlane.Store(p) }

// gcTuneOnce applies the engine's GC pacing once per process, on the
// first job either entry point (Run or RunOne) executes. The workload
// is churn-heavy with a small live set: a cell's platforms, traces and
// page tables are born and die inside it, so with the default GOGC=100
// the heap goal sits barely above the live set and every worker spends
// measurable time in mark assists — at high worker counts the assists
// alone erased the scheduler's gains (GOMAXPROCS=8 ran slower than 1),
// and serve's cold cells, computed through RunOne between cache hits,
// doubled the collector's cycles under request traffic. Raising the
// target trades bounded peak RSS for assist-free throughput; it is
// deliberately process-wide and never restored, because interleaving
// restores from concurrent runs would leave the setting at whichever
// run exited last.
var gcTuneOnce sync.Once

// sweepGCPercent is the pacing target the engine applies when the
// operator has not chosen one.
const sweepGCPercent = 300

func gcTune() {
	gcTuneOnce.Do(func() {
		if pct, ok := gcTuneTarget(os.Getenv("GOGC")); ok {
			debug.SetGCPercent(pct)
		}
	})
}

// gcTuneTarget decides whether the engine may retune the collector: an
// explicitly-set GOGC environment variable — any non-empty value,
// including "off" — is an operator decision the runtime already
// honored at startup, and the engine must not silently override it.
// Only when GOGC is unset does the engine apply its own pacing.
func gcTuneTarget(gogc string) (percent int, tune bool) {
	if strings.TrimSpace(gogc) != "" {
		return 0, false
	}
	return sweepGCPercent, true
}

// Experiment is one schedulable unit of measurement.
type Experiment struct {
	// Name uniquely identifies the experiment within a run; the per-job
	// RNG seed is derived from it, so renaming an experiment re-rolls
	// its noise while leaving every other job untouched.
	Name string `json:"name"`
	// Platform is the platform class under test (server, mobile,
	// embedded), when meaningful.
	Platform string `json:"platform,omitempty"`
	// Arch is the security architecture under test, when meaningful.
	Arch string `json:"arch,omitempty"`
	// Attack is the attack family exercised (cachesca, transient,
	// physical, probe), when meaningful.
	Attack string `json:"attack,omitempty"`
	// Defense labels the mitigation configuration the experiment runs
	// under ("none", "stock", a defense name, or a "+"-joined
	// combination), when meaningful — the third sweep axis.
	Defense string `json:"defense,omitempty"`
	// Samples is the sample budget (traces, timings, probe rounds)
	// handed to the Run closure via Ctx.
	Samples int `json:"samples,omitempty"`
	// Cost is the scheduler's relative cost estimate for this job (for
	// the sweep: the cell's sample floor weighted by architecture).
	// It only shapes shard packing and steal order — never results.
	// Zero means "unknown" and schedules as 1.
	Cost int `json:"cost,omitempty"`
	// Seed is the base RNG seed; the job seed is Seed XOR FNV(Name).
	Seed int64 `json:"seed,omitempty"`
	// Run performs the measurement. It must draw all randomness from
	// ctx.RNG (never the global source) so results are reproducible
	// under any parallelism.
	Run func(ctx *Ctx) (Outcome, error) `json:"-"`
}

// Ctx is the per-job execution context handed to an Experiment's Run.
type Ctx struct {
	// Context carries cancellation from Engine.Run.
	Context context.Context
	// RNG is the job-private deterministic random source.
	RNG *rand.Rand
	// Samples echoes Experiment.Samples.
	Samples int
	// Seed is the derived per-job seed (for APIs that take a seed
	// rather than a *rand.Rand, e.g. physical.CLKSCREW).
	Seed int64
	// Scratch is the worker-private reuse store: heavy state (platform
	// hierarchies, trace arenas) that survives from one job to the next
	// on the same worker. Reuse must be value-invisible — a job must
	// measure bit-identically with a fresh store — which the determinism
	// matrix test enforces by sweeping worker counts.
	Scratch *Scratch
}

// Scratch is a keyed store of worker-private reusable state. It is not
// safe for concurrent use; each worker owns exactly one.
type Scratch struct {
	vals map[string]any
}

// NewScratch returns an empty store.
func NewScratch() *Scratch { return &Scratch{vals: map[string]any{}} }

// Get returns the value stored under key, or nil.
func (s *Scratch) Get(key string) any {
	if s == nil {
		return nil
	}
	return s.vals[key]
}

// Put stores v under key.
func (s *Scratch) Put(key string, v any) {
	if s != nil {
		s.vals[key] = v
	}
}

// Outcome is what an Experiment measured.
type Outcome struct {
	// Rows are rendered table rows (zero or more) for the text
	// renderers.
	Rows [][]string `json:"rows,omitempty"`
	// Metrics are named scalar measurements (bytes extracted, traces
	// to disclosure, nibbles recovered, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Verdict is the experiment's one-word security conclusion
	// (e.g. "LEAKS", "blocked", "n/a").
	Verdict string `json:"verdict,omitempty"`
	// Detail is a free-form basis note explaining the verdict.
	Detail string `json:"detail,omitempty"`
	// Payload carries structured results for callers that assemble
	// richer artifacts (Figure 1 rows). It is JSON-encoded as-is.
	Payload any `json:"payload,omitempty"`
	// Sampling carries the adaptive sequential-sampling verdict for
	// experiments run under a stats.Policy: the decided class, its
	// confidence, and the sample cost actually paid. Nil for
	// fixed-budget experiments and n/a cells.
	Sampling *stats.Decision `json:"sampling,omitempty"`
}

// Result pairs an Experiment with its Outcome, timing, and error state.
type Result struct {
	Experiment
	Outcome
	// Err is the Run error, if any ("" on success).
	Err string `json:"error,omitempty"`
	// DurationNS is the wall-clock cost of this job in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
}

// Failed reports whether the experiment errored.
func (r *Result) Failed() bool { return r.Err != "" }

// Duration is DurationNS as a time.Duration.
func (r *Result) Duration() time.Duration { return time.Duration(r.DurationNS) }

// Engine executes experiments on a bounded worker pool.
type Engine struct {
	// Parallel is the worker count. New clamps it to >= 1.
	Parallel int
	// ShardSize is the number of experiments per scheduling shard —
	// the unit of work-stealing granularity. Smaller shards steal at a
	// finer grain (better balance, more queue traffic); <= 0 picks a
	// size that gives each worker a handful of shards. Results are
	// byte-identical at any shard size.
	ShardSize int
}

// New returns an engine with the given parallelism; parallel <= 0 sizes
// the pool to GOMAXPROCS.
func New(parallel int) *Engine {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Engine{Parallel: parallel}
}

// DeriveSeed computes the per-job seed: the experiment's base seed mixed
// with an FNV-1a hash of its name. Depends only on (base, name), never on
// scheduling order — the determinism guarantee under any parallelism.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64())
}

// jobCost is an experiment's scheduling weight (Cost, floored to 1).
func jobCost(exp *Experiment) int64 {
	if exp.Cost > 0 {
		return int64(exp.Cost)
	}
	return 1
}

// shardQueue is one worker's deque of shards (each shard a slice of job
// indices). The owner pops from the front — expensive shards first, and
// at one worker exactly submission order — while thieves pop from the
// back, so owner and thieves only collide on the last shard. The pad
// keeps neighboring queues of the scheduler's contiguous slice on
// separate cache lines: the remaining-cost counter is written under
// every pop and was a false-sharing hazard at high worker counts.
type shardQueue struct {
	mu     sync.Mutex
	shards [][]int
	cost   int64 // summed cost of the queued shards
	_      [64]byte
}

func (q *shardQueue) push(shard []int, cost int64) {
	q.shards = append(q.shards, shard)
	q.cost += cost
}

func (q *shardQueue) popFront(costs []int64) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.shards) == 0 {
		return nil
	}
	sh := q.shards[0]
	q.shards = q.shards[1:]
	q.take(sh, costs)
	return sh
}

func (q *shardQueue) popBack(costs []int64) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.shards) == 0 {
		return nil
	}
	sh := q.shards[len(q.shards)-1]
	q.shards = q.shards[:len(q.shards)-1]
	q.take(sh, costs)
	return sh
}

func (q *shardQueue) take(sh []int, costs []int64) {
	for _, i := range sh {
		q.cost -= costs[i]
	}
}

func (q *shardQueue) remaining() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cost
}

// scheduler is the sharded work-stealing run state: per-worker deques
// seeded by cost-balanced static assignment, rebalanced at runtime by
// stealing whole shards from the most-loaded victim.
type scheduler struct {
	queues []shardQueue
	costs  []int64
}

// newScheduler shards the jobs and assigns them to workers. Jobs sort by
// descending cost (stable, so equal costs keep submission order), chunk
// into shards of shardSize, and greedy-assign — most expensive shard
// first, always to the least-loaded worker (LPT). The assignment is a
// starting point, not a commitment: whatever it gets wrong, stealing
// repairs at runtime.
func newScheduler(exps []Experiment, workers, shardSize int) *scheduler {
	costs := make([]int64, len(exps))
	order := make([]int, len(exps))
	for i := range exps {
		costs[i] = jobCost(&exps[i])
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })

	if shardSize <= 0 {
		// A handful of shards per worker: enough steal granularity to
		// level a skewed tail without per-job queue traffic.
		shardSize = len(exps) / (workers * 4)
		if shardSize < 1 {
			shardSize = 1
		}
	}

	s := &scheduler{queues: make([]shardQueue, workers), costs: costs}
	for at := 0; at < len(order); at += shardSize {
		end := at + shardSize
		if end > len(order) {
			end = len(order)
		}
		shard := order[at:end:end]
		var c int64
		for _, i := range shard {
			c += costs[i]
		}
		least := 0
		for w := 1; w < workers; w++ {
			if s.queues[w].cost < s.queues[least].cost {
				least = w
			}
		}
		s.queues[least].push(shard, c)
	}
	return s
}

// next returns worker self's next shard: its own front, else a shard
// stolen from the back of the most-loaded victim, else nil (run drained).
func (s *scheduler) next(self int) []int {
	if sh := s.queues[self].popFront(s.costs); sh != nil {
		return sh
	}
	for {
		victim, best := -1, int64(0)
		for w := range s.queues {
			if w == self {
				continue
			}
			if c := s.queues[w].remaining(); c > best {
				victim, best = w, c
			}
		}
		if victim < 0 {
			return nil
		}
		if sh := s.queues[victim].popBack(s.costs); sh != nil {
			return sh
		}
		// Lost the race to the victim's own drain; rescan. Remaining
		// cost only decreases, so this terminates.
	}
}

// Run executes all experiments and returns one Result per experiment, in
// submission order regardless of completion order. Scheduling is sharded
// work-stealing: jobs group into shards by cost estimate, each worker
// drains its own deque and steals from the most-loaded peer when empty.
// Each worker carries one Scratch store across all jobs it executes. A
// failing experiment does not abort the others; the aggregate error (nil
// if none failed) joins every failure in submission order. Context
// cancellation stops unstarted jobs, marking them with the context error.
func (e *Engine) Run(ctx context.Context, exps []Experiment) ([]Result, error) {
	results := make([]Result, len(exps))
	workers := e.Parallel
	if workers < 1 {
		workers = 1
	}
	sched := newScheduler(exps, workers, e.ShardSize)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			scratch := NewScratch()
			for {
				shard := sched.next(self)
				if shard == nil {
					return
				}
				for _, i := range shard {
					if err := ctx.Err(); err != nil {
						results[i] = Result{Experiment: exps[i], Err: err.Error()}
						continue
					}
					results[i] = runOne(ctx, exps[i], scratch)
				}
			}
		}(w)
	}
	wg.Wait()

	var failures []string
	for i := range results {
		if results[i].Failed() {
			failures = append(failures, fmt.Sprintf("%s: %s", results[i].Name, results[i].Err))
		}
	}
	if len(failures) > 0 {
		return results, fmt.Errorf("%d/%d experiments failed: %s",
			len(failures), len(exps), strings.Join(failures, "; "))
	}
	return results, nil
}

// RunOne executes a single experiment synchronously, outside any worker
// pool, with the same per-job seed derivation, panic confinement and GC
// pacing as Run — the cell-level entry point the serve layer computes individual
// grid cells through. A RunOne result is bit-identical (modulo wall
// clock) to the same experiment's result inside a pooled Run.
func RunOne(ctx context.Context, exp Experiment) Result {
	return runOne(ctx, exp, NewScratch())
}

// runOne executes a single experiment with panic confinement, so one
// misbehaving job reports as a failed Result instead of killing the pool.
func runOne(ctx context.Context, exp Experiment, scratch *Scratch) (res Result) {
	gcTune()
	res.Experiment = exp
	seed := DeriveSeed(exp.Seed, exp.Name)
	jctx := &Ctx{
		Context: ctx,
		RNG:     rand.New(rand.NewSource(seed)),
		Samples: exp.Samples,
		Seed:    seed,
		Scratch: scratch,
	}
	start := time.Now()
	defer func() {
		res.DurationNS = time.Since(start).Nanoseconds()
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	if exp.Run == nil {
		res.Err = "experiment has no Run function"
		return res
	}
	if p := faultPlane.Load(); p != nil {
		p.Stall(ctx, FaultStall)
		if p.Fire(FaultPanic) {
			panic("fault: injected engine panic")
		}
	}
	out, err := exp.Run(jctx)
	res.Outcome = out
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// Summary aggregates a run's results.
type Summary struct {
	Experiments int            `json:"experiments"`
	Failed      int            `json:"failed"`
	Verdicts    map[string]int `json:"verdicts,omitempty"`
	// TotalNS is the summed per-job wall clock (the serial cost);
	// WallNS is the observed end-to-end wall clock. Their ratio is the
	// realized speedup.
	TotalNS int64 `json:"total_ns"`
	WallNS  int64 `json:"wall_ns,omitempty"`
	// TotalSamples is the summed sample cost of the run: the adaptive
	// SamplesUsed where a job carries a sampling decision, the nominal
	// budget otherwise (n/a and failed cells count zero). FixedSamples
	// is what the same cells cost under fixed budgets (the summed
	// per-cell Reference, or again the nominal budget for jobs without
	// a sampling decision) — the pair states the adaptive engine's
	// realized saving.
	TotalSamples int64 `json:"total_samples,omitempty"`
	FixedSamples int64 `json:"fixed_samples,omitempty"`
	// EarlyStopped and Escalated count the cells whose sequential test
	// settled under / pushed past the reference budget.
	EarlyStopped int `json:"early_stopped,omitempty"`
	Escalated    int `json:"escalated,omitempty"`
}

// Summarize aggregates results; wall is the observed end-to-end duration
// (pass 0 if unknown). It is a serial post-pass by design: the pool
// keeps no shared progress counters for it to read — workers write
// disjoint results[i] slots and every aggregate here is computed once
// after the pool drains, so a wide run spends no locks or cross-core
// cache-line traffic on bookkeeping (the padded shard deques are the
// dispatch path's only shared mutable state).
func Summarize(results []Result, wall time.Duration) Summary {
	s := Summary{Experiments: len(results), Verdicts: map[string]int{}, WallNS: wall.Nanoseconds()}
	for i := range results {
		s.TotalNS += results[i].DurationNS
		if results[i].Failed() {
			s.Failed++
			continue
		}
		if v := results[i].Verdict; v != "" {
			s.Verdicts[v]++
		}
		if d := results[i].Sampling; d != nil {
			s.TotalSamples += int64(d.SamplesUsed)
			s.FixedSamples += int64(d.Reference)
			if d.StoppedEarly {
				s.EarlyStopped++
			}
			if d.Escalated {
				s.Escalated++
			}
		} else if results[i].Verdict != "n/a" {
			n := int64(results[i].Experiment.Samples)
			s.TotalSamples += n
			s.FixedSamples += n
		}
	}
	if len(s.Verdicts) == 0 {
		s.Verdicts = nil
	}
	return s
}

// Verdicts returns the summary's verdict counts as sorted "verdict=N"
// strings (for stable logging).
func (s Summary) VerdictList() []string {
	out := make([]string, 0, len(s.Verdicts))
	for v, n := range s.Verdicts {
		out = append(out, fmt.Sprintf("%s=%d", v, n))
	}
	sort.Strings(out)
	return out
}
