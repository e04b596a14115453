package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/fault"
)

// chaosSeed fixes every chaos schedule in this file: the same seed CI
// runs, so a failure here replays bit-identically on a laptop.
const chaosSeed = 42

// cellTargets is the small grid slice the chaos tests hammer; tiny
// budgets keep each cold compute in the low milliseconds.
var cellTargets = []string{
	"/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=16",
	"/cell?scenario=meltdown&arch=sgx&defense=none&samples=16",
	"/cell?scenario=flush%2Breload&arch=sgx&defense=none&samples=16",
}

// expectedBodies computes each cellTargets body on a pristine server
// (no faults): the byte-identical ground truth faults must never bend.
func expectedBodies(t *testing.T) map[string]string {
	t.Helper()
	clean := newTestServer(Options{})
	want := make(map[string]string, len(cellTargets))
	for _, target := range cellTargets {
		rec := get(t, clean, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("pristine %s = %d %s", target, rec.Code, rec.Body.String())
		}
		want[target] = rec.Body.String()
	}
	return want
}

// TestChaosDiskFaults drives every disk fault point (read IO errors,
// write IO errors, at-rest corruption) under concurrent load and pins
// the degradation contract: injected disk faults never surface as a
// 5xx, never bend a served body away from the pristine ground truth,
// never leak an admission slot, and once the faults clear the server
// still answers byte-identically.
func TestChaosDiskFaults(t *testing.T) {
	want := expectedBodies(t)
	baseline := runtime.NumGoroutine()

	plane := fault.New(chaosSeed)
	plane.Arm(diskcache.FaultRead, fault.Spec{Prob: 0.5})
	plane.Arm(diskcache.FaultWrite, fault.Spec{Prob: 0.5})
	plane.Arm(diskcache.FaultCorrupt, fault.Spec{Prob: 0.5})
	s := newTestServer(Options{
		CacheDir:     t.TempDir(),
		CacheEntries: 2, // small LRU forces repeated disk reads
		Faults:       plane,
	})
	s.retryBase = time.Millisecond
	s.brk = newBreaker(3, time.Millisecond)

	var wg sync.WaitGroup
	var badCode atomic503
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for _, target := range cellTargets {
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
					if rec.Code >= 500 {
						badCode.set(target, rec.Code, rec.Body.String())
					} else if rec.Code == http.StatusOK && rec.Body.String() != want[target] {
						badCode.set(target, rec.Code, "body diverged under disk faults")
					}
				}
			}
		}()
	}
	wg.Wait()
	if msg := badCode.get(); msg != "" {
		t.Fatal(msg)
	}
	if n := s.adm.inFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge = %d after chaos, want 0 (leaked slot)", n)
	}
	if n := s.adm.waiting.Load(); n != 0 {
		t.Fatalf("queue gauge = %d after chaos, want 0", n)
	}

	// Faults clear: every body must still be the pristine bytes.
	plane.Reset()
	for _, target := range cellTargets {
		rec := get(t, s, target)
		if rec.Code != http.StatusOK || rec.Body.String() != want[target] {
			t.Fatalf("after faults cleared %s = %d, body diverged: %s", target, rec.Code, rec.Body.String())
		}
	}
	waitFor(t, "chaos goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})
}

// atomic503 records the first bad response seen across hammer
// goroutines (t.Fatalf must not be called off the test goroutine).
type atomic503 struct {
	mu  sync.Mutex
	msg string
}

func (a *atomic503) set(target string, code int, body string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.msg == "" {
		a.msg = target + " = " + http.StatusText(code) + ": " + body
	}
}

func (a *atomic503) get() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.msg
}

// readyz fetches and decodes /readyz.
func readyz(t *testing.T, s *Server) (int, readiness) {
	t.Helper()
	rec := get(t, s, "/readyz")
	var body readiness
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("/readyz body %q: %v", rec.Body.String(), err)
	}
	return rec.Code, body
}

// TestChaosBreakerLifecycle walks the breaker through its whole state
// machine with a deterministic clock: persistent write failures open
// it (readyz flips healthy -> degraded while /cell keeps answering
// from memory), the cooldown admits a half-open probe, and a healthy
// disk closes it again (degraded -> healthy).
func TestChaosBreakerLifecycle(t *testing.T) {
	plane := fault.New(chaosSeed)
	plane.Arm(diskcache.FaultWrite, fault.Spec{Prob: 1})
	s := newTestServer(Options{CacheDir: t.TempDir(), Faults: plane})
	s.retries = 0 // no backoff retries: each Put is one failure
	s.brk = newBreaker(2, time.Minute)
	clock := time.Unix(1000, 0)
	s.brk.now = func() time.Time { return clock }

	if code, body := readyz(t, s); code != http.StatusOK || body.Status != "healthy" || body.Disk != "closed" {
		t.Fatalf("fresh /readyz = %d %+v, want 200 healthy/closed", code, body)
	}

	// Two cold cells -> two failed write-behinds -> breaker opens.
	for _, target := range cellTargets[:2] {
		if rec := get(t, s, target); rec.Code != http.StatusOK {
			t.Fatalf("%s under write faults = %d %s, want 200 (write-behind is best-effort)", target, rec.Code, rec.Body.String())
		}
	}
	if code, body := readyz(t, s); code != http.StatusOK || body.Status != "degraded" || body.Disk != "open" {
		t.Fatalf("/readyz after breaker opened = %d %+v, want 200 degraded/open", code, body)
	}
	if s.brk.opens.Load() != 1 {
		t.Fatalf("breaker opens = %d, want 1", s.brk.opens.Load())
	}

	// While open the disk is bypassed: a cold cell still answers 200
	// and the bypass counter moves instead of the disk.
	before := s.met.diskBypassed.Load()
	if rec := get(t, s, cellTargets[2]); rec.Code != http.StatusOK {
		t.Fatalf("%s while breaker open = %d, want 200 (memory-only degraded mode)", cellTargets[2], rec.Code)
	}
	if s.met.diskBypassed.Load() <= before {
		t.Fatal("open breaker did not bypass the disk tier")
	}

	// Disk heals, cooldown elapses: the next disk operation is the
	// half-open probe, and its success closes the breaker.
	plane.Reset()
	clock = clock.Add(2 * time.Minute)
	s.cache = newCellCache(2, 0) // drop the memory tier so the next hit goes cold
	if rec := get(t, s, cellTargets[0]); rec.Code != http.StatusOK {
		t.Fatalf("probe request = %d, want 200", rec.Code)
	}
	if code, body := readyz(t, s); code != http.StatusOK || body.Status != "healthy" || body.Disk != "closed" {
		t.Fatalf("/readyz after recovery = %d %+v, want 200 healthy/closed", code, body)
	}
}

// TestChaosEnginePanic pins panic confinement end to end: an injected
// panic inside a job's compute surfaces as one structured 500 — not a
// crashed process, not a wedged flight — and the very next request for
// the same cell computes cleanly once the fault budget is spent.
func TestChaosEnginePanic(t *testing.T) {
	want := expectedBodies(t)
	plane := fault.New(chaosSeed)
	plane.Arm(engine.FaultPanic, fault.Spec{Prob: 1, Limit: 1})
	s := newTestServer(Options{Faults: plane})

	rec := get(t, s, cellTargets[0])
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("cell under engine panic = %d %s, want 500", rec.Code, rec.Body.String())
	}
	var e apiError
	if json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("panic 500 body %q is not a structured error", rec.Body.String())
	}

	rec = get(t, s, cellTargets[0])
	if rec.Code != http.StatusOK || rec.Body.String() != want[cellTargets[0]] {
		t.Fatalf("retry after panic budget spent = %d, body diverged: %s", rec.Code, rec.Body.String())
	}
}

// TestComputeDeadline pins the deadline contract: a compute stalled
// far past Options.ComputeDeadline answers a structured 503 about the
// deadline — it does not hang the handler for the stall's duration, nor
// wait for the client to give up. /attest/tcb derives the revocation
// grid under the same deadline as /cell.
func TestComputeDeadline(t *testing.T) {
	plane := fault.New(chaosSeed)
	plane.Arm(engine.FaultStall, fault.Spec{Prob: 1, Delay: time.Minute})
	s := newAttestServer(Options{Faults: plane, ComputeDeadline: 100 * time.Millisecond})

	for _, target := range []string{cellTargets[0], "/attest/tcb"} {
		// The client's own patience outlasts the deadline: a handler that
		// ignores ComputeDeadline answers only when this context ends.
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		start := time.Now()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
		elapsed := time.Since(start)
		cancel()
		if elapsed > 2*time.Second {
			t.Fatalf("%s: deadline did not interrupt the stall (took %v)", target, elapsed)
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s stalled = %d %s, want 503", target, rec.Code, rec.Body.String())
		}
		var e apiError
		if json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "deadline") {
			t.Fatalf("%s: deadline 503 body %q does not name the deadline", target, rec.Body.String())
		}
	}
	if s.met.deadlineRejects.Load() == 0 {
		t.Fatal("deadline 503 did not move intrust_deadline_rejects_total")
	}
	if n := s.adm.inFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge = %d after deadline 503, want 0", n)
	}
}

// TestSweepClientDisconnect is the regression test for cooperative
// cancellation: a client that vanishes mid-cold-sweep (while an
// injected stall holds the compute) must stop the in-flight compute at
// the next checkpoint, release its admission slot, and leave the
// caches consistent — the same sweep afterwards streams clean.
func TestSweepClientDisconnect(t *testing.T) {
	baseline := runtime.NumGoroutine()
	plane := fault.New(chaosSeed)
	plane.Arm(engine.FaultStall, fault.Spec{Prob: 1, Delay: time.Minute})
	s := newTestServer(Options{Faults: plane, MaxInFlight: 1})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet,
			"/sweep?arch=sgx&attack=spectre-v1,meltdown&defense=none&samples=16", nil).WithContext(ctx)
		s.ServeHTTP(rec, req)
	}()

	waitFor(t, "sweep to take its compute slot", func() bool { return s.adm.inFlight.Load() == 1 })
	cancel() // the client is gone

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled sweep handler did not return (compute not stopped at a checkpoint)")
	}
	waitFor(t, "admission slot release", func() bool { return s.adm.inFlight.Load() == 0 })
	waitFor(t, "sweep goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= baseline+2
	})

	// Caches stayed consistent: with the stall disarmed the identical
	// sweep streams every cell plus an error-free summary.
	plane.Reset()
	rec := get(t, s, "/sweep?arch=sgx&attack=spectre-v1,meltdown&defense=none&samples=16")
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep after disconnect recovery = %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var sum SweepSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("terminal line %q: %v", lines[len(lines)-1], err)
	}
	if sum.Error != "" || sum.Cells != 2 || len(lines) != sum.Cells+1 {
		t.Fatalf("recovered sweep summary %+v over %d lines, want 2 clean cells", sum, len(lines))
	}
}

// TestSweepErrorEmitsSummary pins the mid-stream failure contract: a
// sweep that fails after streaming starts emits an NDJSON error line
// AND still terminates with a SweepSummary whose error field is set —
// distinguishable from a dropped connection, which has no summary.
func TestSweepErrorEmitsSummary(t *testing.T) {
	plane := fault.New(chaosSeed)
	plane.Arm(engine.FaultPanic, fault.Spec{Prob: 1})
	s := newTestServer(Options{Faults: plane})

	rec := get(t, s, "/sweep?arch=sgx&attack=spectre-v1&defense=none&samples=16")
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d (headers committed before the failure)", rec.Code)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("failed sweep streamed %d lines, want error line + summary line:\n%s", len(lines), rec.Body.String())
	}
	var e apiError
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &e); err != nil || e.Error == "" {
		t.Fatalf("penultimate line %q is not an NDJSON error record", lines[len(lines)-2])
	}
	var sum SweepSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("terminal line %q: %v", lines[len(lines)-1], err)
	}
	if sum.Error == "" {
		t.Fatalf("terminal summary %+v carries no error after a mid-stream failure", sum)
	}
	if sum.Cells != 1 {
		t.Fatalf("summary cells = %d, want the full selection size 1", sum.Cells)
	}
}

// TestReadyzStates pins every /readyz status: healthy without and with
// a (closed-breaker) disk tier, degraded once the breaker trips, and
// draining — which must still answer as JSON while every other
// endpoint 503s behind the drain gate.
func TestReadyzStates(t *testing.T) {
	s := newTestServer(Options{})
	if code, body := readyz(t, s); code != http.StatusOK || body.Status != "healthy" || body.Disk != "" {
		t.Fatalf("diskless /readyz = %d %+v, want 200 healthy with no disk field", code, body)
	}

	s = newTestServer(Options{CacheDir: t.TempDir()})
	s.brk = newBreaker(2, breakerCooldown)
	if code, body := readyz(t, s); code != http.StatusOK || body.Status != "healthy" || body.Disk != "closed" {
		t.Fatalf("disk /readyz = %d %+v, want 200 healthy/closed", code, body)
	}
	s.brk.fail()
	s.brk.fail()
	if code, body := readyz(t, s); code != http.StatusOK || body.Status != "degraded" || body.Disk != "open" {
		t.Fatalf("tripped /readyz = %d %+v, want 200 degraded/open", code, body)
	}

	s.BeginDrain()
	code, body := readyz(t, s)
	if code != http.StatusServiceUnavailable || body.Status != "draining" {
		t.Fatalf("draining /readyz = %d %+v, want 503 draining", code, body)
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503 (drain gate)", rec.Code)
	}
}

// TestHTTPServerTimeouts pins the connection hygiene bounds on the
// server ListenAndServe runs: a header-stalling peer is cut at 10s, an
// idle keep-alive connection at 120s, and the read timeout stays unset
// so /sweep can stream indefinitely.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newTestServer(Options{}).httpServer(":0")
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 120*time.Second {
		t.Fatalf("IdleTimeout = %v, want 120s", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 {
		t.Fatalf("ReadTimeout = %v, want 0 (streams must not be cut)", hs.ReadTimeout)
	}
}

// TestRetryAfterDerived pins the 429 hint derivation: observed mean
// cell cost times the queue ahead, spread over the slots, clamped to
// [1, 60] — not the old hard-coded "1".
func TestRetryAfterDerived(t *testing.T) {
	s := newTestServer(Options{MaxInFlight: 2})

	// No computes observed yet: the prior says 1s.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold retryAfterSeconds = %d, want the 1s floor", got)
	}

	// Mean cell cost 2s, 3 waiting + 2 in flight + 1 self = 6 ahead,
	// over 2 slots -> ceil(2*6/2) = 6 seconds.
	s.met.cellsComputed.Store(4)
	s.met.cellComputeUS.Store(8_000_000)
	s.adm.waiting.Store(3)
	s.adm.inFlight.Store(2)
	if got := s.retryAfterSeconds(); got != 6 {
		t.Fatalf("retryAfterSeconds = %d, want 6", got)
	}

	// A pathological backlog clamps at 60.
	s.adm.waiting.Store(10_000)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("backlogged retryAfterSeconds = %d, want the 60s cap", got)
	}
	s.adm.waiting.Store(0)
	s.adm.inFlight.Store(0)
}

// TestChaosMetricsExposed asserts the resilience surface shows up in
// /metrics: breaker state and opens, disk IO error counters, and the
// per-point fault injection counters.
func TestChaosMetricsExposed(t *testing.T) {
	plane := fault.New(chaosSeed)
	plane.Arm(diskcache.FaultWrite, fault.Spec{Prob: 1})
	s := newTestServer(Options{CacheDir: t.TempDir(), Faults: plane})
	s.retries = 0
	s.brk = newBreaker(1, breakerCooldown)
	if rec := get(t, s, cellTargets[0]); rec.Code != http.StatusOK {
		t.Fatalf("cell = %d", rec.Code)
	}
	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"intrust_disk_breaker_state 1",
		"intrust_disk_breaker_opens_total 1",
		"intrust_disk_io_errors_total 1",
		"intrust_disk_write_errors_total 1",
		`intrust_fault_injections_total{point="disk.write"} 1`,
		"intrust_deadline_rejects_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
