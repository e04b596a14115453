package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
)

// TestConcurrentHammer drives 32 goroutines through the full handler
// stack against a cell pool larger than the cache bound, so admission,
// the LRU's eviction path, the singleflight and the metrics all run
// concurrently. Run under -race this is the synchronization proof; in
// any mode it asserts no request ever sees a 5xx and every key's body
// stays byte-stable across hits, misses and re-computations after
// eviction.
func TestConcurrentHammer(t *testing.T) {
	s := newTestServer(Options{CacheEntries: 8, MaxInFlight: 4, QueueDepth: 1024})
	scenarios := []string{"spectre-v1", "spectre-btb", "ret2spec", "meltdown", "foreshadow"}
	archs := []string{"sgx", "trustzone", "sanctuary"}
	var targets []string
	for _, sc := range scenarios {
		for _, a := range archs {
			targets = append(targets, "/cell?scenario="+sc+"&arch="+a+"&defense=none&samples=16")
		}
	}
	const goroutines = 32
	const perG = 8
	var bodies sync.Map // target -> first body seen
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				target := targets[(g*perG+i*7)%len(targets)]
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					errc <- fmt.Errorf("%s = %d %s", target, rec.Code, rec.Body.String())
					return
				}
				body := rec.Body.String()
				if prev, loaded := bodies.LoadOrStore(target, body); loaded && prev.(string) != body {
					errc <- fmt.Errorf("%s body changed between computations:\n%s\n%s", target, prev, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got, _ := s.cache.size(); got > 8 {
		t.Errorf("cache holds %d entries past its bound of 8", got)
	}
	if s.cache.evictions.Load() == 0 {
		t.Errorf("hammer over %d cells never evicted from an 8-entry cache", len(targets))
	}
	hits, misses := s.cache.hits.Load(), s.cache.misses.Load()
	if hits+misses != goroutines*perG {
		t.Errorf("cache accounting %d hits + %d misses != %d requests", hits, misses, goroutines*perG)
	}
}

// stall installs the compute-stall seam: the first cold compute signals
// stalled and every cold compute blocks until release is closed. The
// caller must defer the returned cleanup.
func stall(t *testing.T) (stalled chan core.CellKey, release chan struct{}, cleanup func()) {
	t.Helper()
	stalled = make(chan core.CellKey, 16)
	release = make(chan struct{})
	testComputeStall = func(k core.CellKey) {
		select {
		case stalled <- k:
		default:
		}
		<-release
	}
	return stalled, release, func() { testComputeStall = nil }
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueSaturation pins the backpressure contract deterministically:
// with one compute slot (held by a stalled request) and a queue of one
// (occupied by a second), the third cold request is refused immediately
// with 429 and a Retry-After hint — and once the slot frees, the queued
// request completes normally.
func TestQueueSaturation(t *testing.T) {
	stalled, release, cleanup := stall(t)
	defer cleanup()
	s := newTestServer(Options{MaxInFlight: 1, QueueDepth: 1})

	type reply struct {
		code int
		body string
	}
	fire := func(target string) chan reply {
		ch := make(chan reply, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			ch <- reply{rec.Code, rec.Body.String()}
		}()
		return ch
	}

	aCh := fire("/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=16")
	<-stalled // A holds the only compute slot
	bCh := fire("/cell?scenario=meltdown&arch=sgx&defense=none&samples=16")
	waitFor(t, "request B to queue", func() bool { return s.adm.waiting.Load() == 1 })

	// The queue is now full: C must be refused in microseconds, not queued.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cell?scenario=foreshadow&arch=sgx&defense=none&samples=16", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d %s, want 429", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Errorf("429 carries no Retry-After hint")
	}
	var e apiError
	if err := json.Unmarshal([]byte(rec.Body.String()), &e); err != nil || e.Error == "" {
		t.Errorf("429 body %q is not a structured error", rec.Body.String())
	}
	if s.adm.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", s.adm.rejected.Load())
	}

	close(release)
	for name, ch := range map[string]chan reply{"A": aCh, "B": bCh} {
		select {
		case r := <-ch:
			if r.code != http.StatusOK {
				t.Errorf("request %s = %d %s after release", name, r.code, r.body)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %s never completed after release", name)
		}
	}
}

// TestGracefulShutdown drives the drain sequence over real connections:
// a cold request is mid-compute when the drain begins; late requests
// are refused with 503; http.Server.Shutdown waits; and the in-flight
// request still completes with its full 200 body.
func TestGracefulShutdown(t *testing.T) {
	stalled, release, cleanup := stall(t)
	defer cleanup()
	s := newTestServer(Options{MaxInFlight: 2, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	type reply struct {
		code int
		body string
		err  error
	}
	inFlight := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=16")
		if err != nil {
			inFlight <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inFlight <- reply{code: resp.StatusCode, body: string(b)}
	}()
	<-stalled // the request is past admission, computing

	s.BeginDrain()
	late, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	late.Body.Close()
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("late request during drain = %d, want 503", late.StatusCode)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- ts.Config.Shutdown(ctx)
	}()
	close(release) // let the in-flight compute finish

	select {
	case r := <-inFlight:
		if r.err != nil {
			t.Fatalf("in-flight request severed by shutdown: %v", r.err)
		}
		if r.code != http.StatusOK || !strings.Contains(r.body, `"verdict"`) {
			t.Fatalf("in-flight request = %d %q, want a complete 200 cell", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}
}
