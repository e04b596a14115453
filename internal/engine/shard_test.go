package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// skewedExperiments is the skewed-cost fixture: a few giant jobs and a
// long tail of tiny ones, so the LPT order front-loads the giants and
// the tail fills in behind them.
func skewedExperiments(n int) []Experiment {
	exps := noisyExperiments(n)
	for i := range exps {
		switch {
		case i%17 == 0:
			exps[i].Cost = 1000
		case i%5 == 0:
			exps[i].Cost = 50
		default:
			exps[i].Cost = 1
		}
	}
	return exps
}

// TestCostShapesOnlyScheduling pins that Cost is advisory: rewriting
// every cost estimate must not change a single result byte.
func TestCostShapesOnlyScheduling(t *testing.T) {
	flat := noisyExperiments(32)
	ref, err := New(4).Run(context.Background(), flat)
	if err != nil {
		t.Fatal(err)
	}
	skewed := skewedExperiments(32)
	got, err := New(4).Run(context.Background(), skewed)
	if err != nil {
		t.Fatal(err)
	}
	// Cost rides in the Experiment header, so strip it alongside timing.
	strip := func(rs []Result) []Result {
		out := stripTiming(rs)
		for i := range out {
			out[i].Cost = 0
		}
		return out
	}
	if !reflect.DeepEqual(strip(ref), strip(got)) {
		t.Error("cost estimates changed experiment results")
	}
}

// TestSkewedScheduleRunsEveryJobOnce drives the skewed fixture through a
// wide pool and checks the scheduling invariant directly: every job
// executes exactly once, whichever worker claimed it.
func TestSkewedScheduleRunsEveryJobOnce(t *testing.T) {
	const n = 97
	var runs [n]int32
	exps := skewedExperiments(n)
	for i := range exps {
		i := i
		inner := exps[i].Run
		exps[i].Run = func(ctx *Ctx) (Outcome, error) {
			atomic.AddInt32(&runs[i], 1)
			return inner(ctx)
		}
	}
	if _, err := New(8).Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if got := atomic.LoadInt32(&runs[i]); got != 1 {
			t.Fatalf("job %d ran %d times, want exactly once", i, got)
		}
	}
}

// TestClaimOrderIsLPT pins the claim order: at one worker, jobs run in
// descending Cost, and jobs of equal Cost (zero counts as 1) run in
// submission order. The ties are many and the run long enough that an
// unstable sort would reorder them.
func TestClaimOrderIsLPT(t *testing.T) {
	const n = 64
	costs := []int{1, 50, 0, 1000, 7, 50, 1}
	cost := func(i int) int { return max(costs[i%len(costs)], 1) }
	var ran []int
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			Name: fmt.Sprintf("lpt-%d", i),
			Cost: costs[i%len(costs)],
			Run: func(*Ctx) (Outcome, error) {
				ran = append(ran, i)
				return Outcome{}, nil
			},
		}
	}
	if _, err := New(1).Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if len(ran) != n {
		t.Fatalf("ran %d jobs, want %d", len(ran), n)
	}
	// (cost desc, index asc) is a strict total order, so a strictly
	// increasing run of n jobs is exactly the stable LPT order.
	for k := 1; k < n; k++ {
		prev, cur := ran[k-1], ran[k]
		if cost(prev) < cost(cur) || cost(prev) == cost(cur) && prev > cur {
			t.Fatalf("claim %d ran job %d (cost %d) after job %d (cost %d); order %v",
				k, cur, cost(cur), prev, cost(prev), ran)
		}
	}
}

// TestScratchPersistsAcrossJobsOnAWorker pins the per-worker reuse seam:
// at parallel=1 every job of a run sees the same Scratch store.
func TestScratchPersistsAcrossJobsOnAWorker(t *testing.T) {
	const n = 12
	var mu sync.Mutex
	stores := map[*Scratch]int{}
	exps := make([]Experiment, n)
	for i := 0; i < n; i++ {
		exps[i] = Experiment{
			Name: fmt.Sprintf("scratch-%d", i),
			Run: func(ctx *Ctx) (Outcome, error) {
				if ctx.Scratch == nil {
					t.Error("job ran without a scratch store")
					return Outcome{}, nil
				}
				mu.Lock()
				stores[ctx.Scratch]++
				mu.Unlock()
				ctx.Scratch.Put("warm", true)
				return Outcome{Verdict: "ok"}, nil
			},
		}
	}
	if _, err := New(1).Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if len(stores) != 1 {
		t.Fatalf("parallel=1 used %d scratch stores, want 1", len(stores))
	}
	for s, jobs := range stores {
		if jobs != n {
			t.Fatalf("store served %d jobs, want %d", jobs, n)
		}
		if s.Get("warm") != true {
			t.Fatal("scratch lost its stored value")
		}
	}
}

// TestScratchIsWorkerPrivate pins the isolation side: a wide pool never
// shares one store between workers concurrently — every job observes a
// store, and distinct workers hold distinct stores (at most one per
// worker).
func TestScratchIsWorkerPrivate(t *testing.T) {
	const n = 64
	var mu sync.Mutex
	stores := map[*Scratch]bool{}
	exps := make([]Experiment, n)
	for i := 0; i < n; i++ {
		exps[i] = Experiment{
			Name: fmt.Sprintf("private-%d", i),
			Run: func(ctx *Ctx) (Outcome, error) {
				mu.Lock()
				stores[ctx.Scratch] = true
				mu.Unlock()
				return Outcome{Verdict: "ok"}, nil
			},
		}
	}
	const workers = 8
	if _, err := New(workers).Run(context.Background(), exps); err != nil {
		t.Fatal(err)
	}
	if len(stores) == 0 || len(stores) > workers {
		t.Fatalf("run used %d scratch stores, want 1..%d", len(stores), workers)
	}
}
