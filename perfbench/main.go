// Command perfbench is the repository's end-to-end benchmark. It drives
// four workloads through the public entry points of core, engine, serve
// and the paper-table generators, checks every output, and prints one
// JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload run happens in a fresh child process (the engine's GC
// tuning and fault plane are process-global, and peak RSS must start from
// zero). With --trace 0 the result carries the end-to-end metrics of one
// untraced child. With --trace 1 an untraced and a traced child run the
// same workload for half the time each; the result carries the per-layer
// metrics of the traced child plus the tracing overhead between the two.
// See README.md in this directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its measurement.
var workloads = map[string]func(*runCtx) error{
	"sweep-adaptive": func(r *runCtx) error { return runSweep(r, sweepAdaptive) },
	"sweep-fixed":    func(r *runCtx) error { return runSweep(r, sweepFixed) },
	"serve-zipf":     runServe,
	"paper-tables":   runTables,
}

// specFile lists every metric a result line carries, with its unit.
const specFile = "BENCHMARK.json"

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the end-to-end and per-layer metric lists.
func loadSpec() (e2e, layers []metricDef, err error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// childTimeout bounds a whole invocation, which must end within 180 s.
const childTimeout = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name: sweep-adaptive, sweep-fixed, serve-zipf or paper-tables")
	seed := flag.Int64("seed", 0, "workload seed (drives serve-zipf's request sequence)")
	seconds := flag.Float64("seconds", 10, "measuring time of one run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	child := flag.Bool("child", false, "internal: measure in this process and print a child report")
	traced := flag.Bool("traced", false, "internal: record spans in the child")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(*workload, run, *seed, *seconds, *traced))
	}
	if err := envGuard(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := orchestrate(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// envGuard refuses to measure under an operator-tuned runtime: the
// engine applies its own GOGC only when GOGC is unset, and GOMAXPROCS
// sizes both the engine pool and serve's admission slots.
func envGuard() error {
	for _, v := range []string{"GOGC", "GOMAXPROCS"} {
		if val, set := os.LookupEnv(v); set {
			return fmt.Errorf("refusing to measure with %s=%q set in the environment; unset it", v, val)
		}
	}
	return nil
}

// envInfo is recorded with every result.
func envInfo() map[string]any {
	return map[string]any{"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0)}
}

// buildDir is the directory holding the benchmark binary; counts, traces
// and temporary serve caches live under it, inside the checkout.
func buildDir() string {
	exe, err := os.Executable()
	if err != nil {
		return ".bench_build"
	}
	return filepath.Dir(exe)
}

// childReport is what a child process measured.
type childReport struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Counts    map[string]int64   `json:"counts,omitempty"`
	Digest    string             `json:"digest,omitempty"`
}

// runCtx is one child's measurement state, handed to a workload, which
// fills in the embedded report.
type runCtx struct {
	seed     int64
	duration time.Duration
	tr       *tracer // nil in the untraced run
	childReport
}

// passes is how many passes (or request windows) a run measures: as
// many nominal-length passes as fit in the measuring time, at least min.
// The count depends only on --seconds, never on how fast this machine is
// today, so every run of a workload does the same work and its peak
// memory and exact counts are comparable across runs.
func (r *runCtx) passes(nominal time.Duration, min int) int {
	n := int(math.Round(float64(r.duration) / float64(nominal)))
	if n < min {
		n = min
	}
	return n
}

// maxProblems caps the mismatch lines a report carries; the counts
// still include every one.
const maxProblems = 20

// failOp counts one failed operation and records why.
func (r *runCtx) failOp(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// problem records a correctness failure of the run as a whole.
func (r *runCtx) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	} else if len(r.Problems) == maxProblems {
		r.Problems = append(r.Problems, "... further problems elided")
	}
}

// batchLatency reports a batch workload's latency. Its user waits for
// a whole pass, so each pass is one request and both latency metrics
// are the pass time; with fewer than eleven passes no percentile has ten
// samples beyond it to tell a tail from the median. The pass time is the
// fast quarter over passes, like the cost metrics.
func (r *runCtx) batchLatency(passes []float64) {
	ms := fastQuarter(passes)
	r.E2E["latency_p50_ms"] = ms
	r.E2E["latency_tail_ms"] = ms
	r.note("latency: %d passes of %.0f ms; one request per pass, so latency_p50_ms = latency_tail_ms = fast-quarter pass %.0f ms",
		len(passes), passes, ms)
}

// note prints an informational line on standard error.
func (r *runCtx) note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func childMain(name string, run func(*runCtx) error, seed int64, seconds float64, traced bool) int {
	r := &runCtx{
		seed:        seed,
		duration:    time.Duration(seconds * float64(time.Second)),
		childReport: childReport{E2E: map[string]float64{}, Layers: map[string]float64{}},
	}
	if traced {
		r.tr = newTracer()
	}
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if traced {
		if err := probeLayers(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: layer probes: %v\n", name, err)
			return 1
		}
		writeSummary(os.Stderr, r.tr.summary())
		dir := filepath.Join(buildDir(), "trace")
		path := filepath.Join(dir, name+".json")
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = r.tr.writeFile(path, envInfo())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: write trace: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(r.tr.spans), path)
	}
	b, err := json.Marshal(r.childReport)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: encode report: %v\n", name, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// spawn runs one child measurement and returns its report.
func spawn(ctx context.Context, workload string, seed int64, seconds float64, traced bool) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s child: bad report: %w", workload, err)
	}
	return &rep, nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func orchestrate(workload string, seed int64, seconds float64, traced bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	e2eMetrics, layerMetrics, err := loadSpec()
	if err != nil {
		return err
	}
	env := envInfo()
	fmt.Printf("env go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d seconds=%g trace=%t\n",
		env["go"], env["nproc"], env["gomaxprocs"], workload, seed, seconds, traced)

	var reps []*childReport
	var problems []string
	defs, pick := e2eMetrics, func(c *childReport) map[string]float64 { return c.E2E }
	childSeconds := seconds
	if !traced {
		rep, err := spawn(ctx, workload, seed, seconds, false)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	} else {
		childSeconds = math.Max(1, seconds/2)
		base, err := spawn(ctx, workload, seed, childSeconds, false)
		if err != nil {
			return err
		}
		tr, err := spawn(ctx, workload, seed, childSeconds, true)
		if err != nil {
			return err
		}
		reps = append(reps, base, tr)
		if d := diffCounts(base.Counts, tr.Counts); d != "" {
			problems = append(problems, "exact counts differ between the untraced and the traced run: "+d)
		}
		if base.Digest != tr.Digest {
			problems = append(problems, "rendered output differs between the untraced and the traced run")
		}
		tr.Layers["trace.overhead_pct"] = (base.E2E["ops_per_s"]/tr.E2E["ops_per_s"] - 1) * 100
		defs, pick = layerMetrics, func(c *childReport) map[string]float64 { return c.Layers }
	}
	last := reps[len(reps)-1]
	if err := checkRepeat(workload, seed, childSeconds, last.Counts); err != nil {
		problems = append(problems, err.Error())
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, rep := range reps {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		problems = append(problems, rep.Problems...)
	}
	got := pick(last)
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			v = 0 // a layer this workload does not exercise
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", d.Name, v))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	if res.Attempted == 0 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checkRepeat compares a run's exact counts with the first run of the
// same workload, seed and run length in this checkout, recording them if
// none yet.
func checkRepeat(workload string, seed int64, seconds float64, counts map[string]int64) error {
	if len(counts) == 0 {
		return nil
	}
	dir := filepath.Join(buildDir(), "counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%gs.json", workload, seed, seconds))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("exact counts of an earlier run unreadable: %v", err)
		}
		if d := diffCounts(prev, counts); d != "" {
			return fmt.Errorf("exact counts differ from an earlier run of seed %d: %s", seed, d)
		}
		return nil
	}
	b, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
