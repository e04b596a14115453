package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/intrust-sim/intrust/internal/stats"
)

// noisyExperiments builds experiments whose outcome depends only on the
// job-private RNG — the determinism contract under any parallelism.
func noisyExperiments(n int) []Experiment {
	exps := make([]Experiment, n)
	for i := 0; i < n; i++ {
		i := i
		exps[i] = Experiment{
			Name:    fmt.Sprintf("exp-%d", i),
			Attack:  "synthetic",
			Samples: 100,
			Seed:    7,
			Run: func(ctx *Ctx) (Outcome, error) {
				sum := 0
				for s := 0; s < ctx.Samples; s++ {
					sum += ctx.RNG.Intn(1000)
				}
				return Outcome{
					Rows:    [][]string{{fmt.Sprintf("exp-%d", i), fmt.Sprintf("%d", sum)}},
					Metrics: map[string]float64{"sum": float64(sum)},
					Verdict: map[bool]string{true: "even", false: "odd"}[sum%2 == 0],
				}, nil
			},
		}
	}
	return exps
}

// stripTiming zeroes the scheduling-dependent fields so runs compare
// equal on the deterministic payload.
func stripTiming(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		r.DurationNS = 0
		r.Run = nil
		out[i] = r
	}
	return out
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	exps := noisyExperiments(16)
	serial, err := New(1).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		parallel, err := New(par).Run(context.Background(), exps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
			t.Errorf("results differ between -parallel 1 and -parallel %d", par)
		}
	}
}

func TestResultsKeepSubmissionOrder(t *testing.T) {
	results, err := New(8).Run(context.Background(), noisyExperiments(32))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if want := fmt.Sprintf("exp-%d", i); r.Name != want {
			t.Fatalf("result %d is %s, want %s", i, r.Name, want)
		}
	}
}

func TestDeriveSeedIsOrderIndependent(t *testing.T) {
	a, b := DeriveSeed(7, "exp-a"), DeriveSeed(7, "exp-b")
	if a == b {
		t.Error("distinct names derived the same seed")
	}
	if a != DeriveSeed(7, "exp-a") {
		t.Error("seed derivation not stable")
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("trace collection failed")
	exps := []Experiment{
		{Name: "ok-1", Run: func(*Ctx) (Outcome, error) { return Outcome{Verdict: "fine"}, nil }},
		{Name: "bad", Run: func(*Ctx) (Outcome, error) { return Outcome{}, boom }},
		{Name: "ok-2", Run: func(*Ctx) (Outcome, error) { return Outcome{Verdict: "fine"}, nil }},
	}
	results, err := New(2).Run(context.Background(), exps)
	if err == nil {
		t.Fatal("Run should surface the experiment failure")
	}
	if !strings.Contains(err.Error(), "bad: trace collection failed") {
		t.Errorf("aggregate error missing failure detail: %v", err)
	}
	if !results[1].Failed() || results[1].Err != boom.Error() {
		t.Errorf("failed result not recorded: %+v", results[1])
	}
	// A failure must not take down the healthy experiments.
	for _, i := range []int{0, 2} {
		if results[i].Failed() || results[i].Verdict != "fine" {
			t.Errorf("healthy experiment %s affected by sibling failure: %+v", results[i].Name, results[i])
		}
	}
	s := Summarize(results, 0)
	if s.Failed != 1 || s.Experiments != 3 {
		t.Errorf("summary wrong: %+v", s)
	}
}

func TestPanicConfinedToJob(t *testing.T) {
	exps := []Experiment{
		{Name: "panics", Run: func(*Ctx) (Outcome, error) { panic("boom") }},
		{Name: "survives", Run: func(*Ctx) (Outcome, error) { return Outcome{Verdict: "ok"}, nil }},
	}
	results, err := New(2).Run(context.Background(), exps)
	if err == nil || !strings.Contains(results[0].Err, "panic: boom") {
		t.Errorf("panic not converted to job failure: err=%v result=%+v", err, results[0])
	}
	if results[1].Failed() {
		t.Errorf("sibling of panicking job failed: %+v", results[1])
	}
}

func TestMissingRunFunc(t *testing.T) {
	results, err := New(1).Run(context.Background(), []Experiment{{Name: "empty"}})
	if err == nil || !results[0].Failed() {
		t.Error("nil Run should be a job failure, not a crash")
	}
}

func TestContextCancellationSkipsUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	exps := []Experiment{
		{Name: "first", Run: func(*Ctx) (Outcome, error) {
			close(started)
			<-ctx.Done()
			return Outcome{}, ctx.Err()
		}},
	}
	for i := 0; i < 8; i++ {
		exps = append(exps, Experiment{Name: fmt.Sprintf("later-%d", i),
			Run: func(*Ctx) (Outcome, error) { return Outcome{}, nil }})
	}
	go func() {
		<-started
		cancel()
	}()
	results, err := New(1).Run(ctx, exps)
	if err == nil {
		t.Fatal("cancelled run should error")
	}
	last := results[len(results)-1]
	if !last.Failed() || !strings.Contains(last.Err, context.Canceled.Error()) {
		t.Errorf("unstarted job should carry the context error, got %+v", last)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	results, err := New(4).Run(context.Background(), noisyExperiments(5))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport("engine-test", 4, results, 123*time.Millisecond)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ReadReport(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != rep.Tool || got.Parallel != rep.Parallel ||
		!reflect.DeepEqual(got.Summary, rep.Summary) || len(got.Results) != len(rep.Results) {
		t.Errorf("report header did not round-trip: %+v vs %+v", got, rep)
	}
	for i := range got.Results {
		if !reflect.DeepEqual(got.Results[i].Rows, rep.Results[i].Rows) ||
			!reflect.DeepEqual(got.Results[i].Metrics, rep.Results[i].Metrics) ||
			got.Results[i].Name != rep.Results[i].Name {
			t.Errorf("result %d did not round-trip", i)
		}
	}
	// A second encode of the decoded report must be byte-identical: the
	// JSON form is the stable machine interface.
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Error("re-encoded report differs from original encoding")
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	results, err := New(2).Run(context.Background(), noisyExperiments(10))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(results, 10*time.Millisecond)
	total := 0
	for _, n := range s.Verdicts {
		total += n
	}
	if total != 10 || s.Experiments != 10 || s.Failed != 0 {
		t.Errorf("summary wrong: %+v", s)
	}
	if len(s.VerdictList()) != len(s.Verdicts) {
		t.Errorf("verdict list wrong: %v", s.VerdictList())
	}
}

func TestDefaultParallelism(t *testing.T) {
	if e := New(0); e.Parallel < 1 {
		t.Errorf("New(0) parallelism = %d, want >= 1 (GOMAXPROCS)", e.Parallel)
	}
	if e := New(-3); e.Parallel < 1 {
		t.Errorf("New(-3) parallelism = %d, want >= 1", e.Parallel)
	}
}

// TestSummarizeSampling pins the adaptive-cost aggregation: results
// carrying a sampling decision contribute their realized and reference
// costs plus the early/escalated counters, plain results contribute the
// nominal budget on both sides, and n/a or failed results contribute
// nothing.
func TestSummarizeSampling(t *testing.T) {
	results := []Result{
		{Experiment: Experiment{Samples: 64},
			Outcome: Outcome{Verdict: "LEAKS",
				Sampling: &stats.Decision{Class: stats.ClassBroken, SamplesUsed: 32, Reference: 64, Passes: 1, StoppedEarly: true, Decided: true}}},
		{Experiment: Experiment{Samples: 600},
			Outcome: Outcome{Verdict: "blocked",
				Sampling: &stats.Decision{Class: stats.ClassMitigated, SamplesUsed: 1200, Reference: 600, Passes: 2, Escalated: true, Decided: true}}},
		{Experiment: Experiment{Samples: 50}, Outcome: Outcome{Verdict: "LEAKS"}}, // fixed-budget cell
		{Experiment: Experiment{Samples: 99}, Outcome: Outcome{Verdict: "n/a"}},   // no substrate: no cost
		{Experiment: Experiment{Samples: 77}, Err: "boom"},                        // failures carry no cost
	}
	s := Summarize(results, 0)
	if s.TotalSamples != 32+1200+50 {
		t.Errorf("TotalSamples = %d, want %d", s.TotalSamples, 32+1200+50)
	}
	if s.FixedSamples != 64+600+50 {
		t.Errorf("FixedSamples = %d, want %d", s.FixedSamples, 64+600+50)
	}
	if s.EarlyStopped != 1 || s.Escalated != 1 {
		t.Errorf("early/escalated = %d/%d, want 1/1", s.EarlyStopped, s.Escalated)
	}
}

// TestGCTuneRespectsGOGC pins the override rule: the engine retunes
// the collector only when the operator has not set GOGC — an explicit
// env var (any value, including "off") must be left in force.
func TestGCTuneRespectsGOGC(t *testing.T) {
	cases := []struct {
		gogc string
		tune bool
	}{
		{"", true},           // unset: the engine applies its pacing
		{"   ", true},        // whitespace is as good as unset
		{"100", false},       // operator pinned the default explicitly
		{"50", false},        // operator chose tighter pacing
		{"800", false},       // operator chose looser pacing
		{"off", false},       // operator disabled the collector target
		{"not-a-num", false}, // even junk is an explicit operator choice
	}
	for _, tc := range cases {
		pct, tune := gcTuneTarget(tc.gogc)
		if tune != tc.tune {
			t.Errorf("gcTuneTarget(%q) tune = %v, want %v", tc.gogc, tune, tc.tune)
		}
		if tune && pct != sweepGCPercent {
			t.Errorf("gcTuneTarget(%q) percent = %d, want %d", tc.gogc, pct, sweepGCPercent)
		}
	}
}
