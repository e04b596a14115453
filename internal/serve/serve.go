// Package serve is the sweep-as-a-service layer: a long-running
// HTTP/JSON API over the scenario × architecture × defense grid, so the
// paper's efficacy surface is queried instead of recomputed.
//
// The service stands on the engine's determinism guarantee: every grid
// cell's measurement is a pure function of its canonical CellKey
// (scenario, arch, defense, samples, confidence, seed — see
// internal/core), so a content-addressed result cache never serves a
// stale or approximate answer — a cache hit is byte-identical to what a
// fresh computation would render. Repeated queries are therefore O(1),
// and the cache needs bounding (LRU) but never invalidation.
//
// The cache is two-tiered: an in-memory LRU (bounded by entries and by
// resident bytes) in front of an optional persistent tier
// (Options.CacheDir, see internal/diskcache) whose authenticated
// envelopes survive restarts. The hit path is LRU -> disk -> admission
// -> engine: disk hits promote into the LRU and cold computes write
// behind to disk, so a restarted server answers warm cells
// byte-identically with zero engine work, while a tampered, torn or
// truncated cache file reads as a miss and is quarantined — never a
// served body, never a 500.
//
// Endpoints:
//
//	/healthz   liveness (503 while draining)
//	/cell      one grid cell as JSON (X-Cache: hit|miss)
//	/sweep     a grid selection as streaming NDJSON, one cell per line,
//	           warm cells flowing immediately, plus a summary line
//	/attacks   the scenario catalog as JSON
//	/defenses  the mitigation catalog as JSON
//	/attest/quote   a signed attestation quote for (arch, config, tcb)
//	/attest/verify  verify a wire quote under the sweep-driven policy
//	/attest/tcb     per-arch TCB revocation state and its grid evidence
//	/metrics   Prometheus text exposition (cells/sec, cache hit rate,
//	           in-flight jobs, queue depth, per-endpoint latency)
//
// Backpressure: requests that need at least one cold cell pass through
// a bounded admission queue (Options.MaxInFlight compute slots,
// Options.QueueDepth waiters); past that the service answers 429 with
// Retry-After instead of queueing without bound. Cache hits bypass
// admission entirely — a saturated queue cannot slow the warm path.
// Shutdown is graceful: BeginDrain flips new requests to 503 while
// in-flight cells run to completion (ListenAndServe wires this to
// context cancellation and http.Server.Shutdown).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/fault"
	"github.com/intrust-sim/intrust/internal/stats"
)

// Options configures a Server. The zero value selects the defaults
// documented per field.
type Options struct {
	// CacheEntries bounds the result cache's LRU (<= 0 selects 4096).
	CacheEntries int
	// CacheBytes bounds the LRU by resident body bytes alongside the
	// entry bound (<= 0 selects 256 MiB) — entry count alone lets a
	// few large bodies dwarf thousands of cell entries.
	CacheBytes int64
	// CacheDir enables the persistent second cache tier: rendered cell
	// bodies stored in tamper-evident authenticated envelopes
	// (internal/diskcache) that survive restarts. Empty disables the
	// disk tier. The hit path is LRU -> disk -> compute; disk hits
	// promote into the LRU, cold computes write behind to disk.
	CacheDir string
	// CacheSecret keys the disk tier's authentication (HMAC-SHA256,
	// derived deterministically): a file that fails authentication is
	// quarantined and treated as a miss, never served. Every process
	// sharing a CacheDir must share its secret.
	CacheSecret string
	// MaxInFlight bounds concurrently computing requests
	// (<= 0 selects GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds the admission queue: how many computing
	// requests may wait for a slot before the service answers 429
	// (<= 0 selects 64).
	QueueDepth int
	// Seed is the base engine seed cells compute under (the CLI sweep
	// uses 0). It also roots the attestation authority's per-arch
	// quoting keys, so a CLI `intrust attest` run with the same seed
	// mints quotes this server verifies.
	Seed int64
	// RevocationArchs and RevocationAttacks select the none-defense
	// grid slice TCB revocation derives from (nil selects "all"). The
	// slice computes lazily on the first /attest/verify or /attest/tcb
	// request, through the same content-addressed cell cache as any
	// /cell request, so a warm grid revokes in microseconds.
	RevocationArchs, RevocationAttacks []string
	// RevocationSamples is the per-cell budget of the revocation grid
	// (<= 0 selects 64; fixed-budget, so the derived state is identical
	// across processes regardless of adaptive policy defaults).
	RevocationSamples int
	// Faults, when non-nil, arms the deterministic fault-injection plane
	// (internal/fault) across the stack: disk read/write/corruption
	// faults in the persistent tier, stall/panic faults in the engine,
	// and connection drops at the listener. nil (the default) leaves
	// every seam a no-op. Production servers never set this; the chaos
	// suite and the -fault CLI flag do.
	Faults *fault.Plane
	// ComputeDeadline bounds one request's compute time (admission wait
	// included): past it, the request answers 503 with a structured body
	// instead of hanging the handler on a stuck cell. 0 disables the
	// deadline.
	ComputeDeadline time.Duration
	// BreakerThreshold is how many consecutive disk-tier IO failures
	// open the circuit breaker over the persistent cache (<= 0 selects
	// 5). While open the server degrades to memory-only.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker bypasses the disk
	// before probing it again half-open (<= 0 selects 5s).
	BreakerCooldown time.Duration
	// DiskRetries is how many times a failed write-behind persist
	// retries with exponential backoff before counting as a failure
	// (0 selects 2; negative disables retries).
	DiskRetries int
	// DiskRetryBase is the first retry's backoff, doubling per attempt
	// (<= 0 selects 5ms).
	DiskRetryBase time.Duration
}

// Server is the sweep-as-a-service HTTP handler plus its cache,
// admission and metrics state. Create it with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	opts     Options
	cache    *cellCache
	disk     *diskcache.Store // nil when Options.CacheDir is empty
	adm      *admission
	met      *metrics
	flight   *flightGroup
	mux      *http.ServeMux
	brk      *breaker     // circuit breaker over the disk tier (never nil)
	faults   *fault.Plane // nil unless Options.Faults armed the chaos plane
	draining atomic.Bool

	attacks  []byte
	defenses []byte

	attest *attestState
}

// testComputeStall, when non-nil, is called while holding a compute
// slot before a cold cell runs — the deterministic seam the
// backpressure and graceful-shutdown tests block on.
var testComputeStall func(key core.CellKey)

// New builds a Server from the options. The only failure mode is the
// persistent cache tier: an unusable Options.CacheDir is an error at
// construction, not a silently-degraded server.
func New(opts Options) (*Server, error) {
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	switch {
	case opts.DiskRetries == 0:
		opts.DiskRetries = 2
	case opts.DiskRetries < 0:
		opts.DiskRetries = 0
	}
	if opts.DiskRetryBase <= 0 {
		opts.DiskRetryBase = 5 * time.Millisecond
	}
	var disk *diskcache.Store
	if opts.CacheDir != "" {
		var err error
		if disk, err = diskcache.Open(opts.CacheDir, opts.CacheSecret); err != nil {
			return nil, err
		}
		disk.SetFaults(opts.Faults)
	}
	// The engine's fault seam is process-global (the engine has no
	// per-server state); storing nil disarms it, so the last-constructed
	// server's plane governs — fine for production (always nil) and for
	// the chaos suite (one server at a time).
	engine.SetFaultPlane(opts.Faults)
	s := &Server{
		opts:   opts,
		cache:  newCellCache(opts.CacheEntries, opts.CacheBytes),
		disk:   disk,
		adm:    newAdmission(opts.MaxInFlight, opts.QueueDepth),
		met:    newMetrics(),
		flight: newFlightGroup(),
		mux:    http.NewServeMux(),
		brk:    newBreaker(opts.BreakerThreshold, opts.BreakerCooldown),
		faults: opts.Faults,
	}
	s.attest = newAttestState(opts)
	s.buildCatalogs()
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.instrumentAlways("/readyz", s.handleReadyz))
	s.mux.HandleFunc("/cell", s.instrument("/cell", s.handleCell))
	s.mux.HandleFunc("/sweep", s.instrument("/sweep", s.handleSweep))
	s.mux.HandleFunc("/attacks", s.instrument("/attacks", s.handleAttacks))
	s.mux.HandleFunc("/defenses", s.instrument("/defenses", s.handleDefenses))
	s.mux.HandleFunc("/attest/quote", s.instrument("/attest/quote", s.handleAttestQuote))
	s.mux.HandleFunc("/attest/verify", s.instrument("/attest/verify", s.handleAttestVerify))
	s.mux.HandleFunc("/attest/tcb", s.instrument("/attest/tcb", s.handleAttestTCB))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server into draining mode: every new request
// (including /healthz, so load balancers stop routing here) answers
// 503 while requests already past admission run to completion. It is
// idempotent; ListenAndServe calls it before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Connection hygiene bounds pinned by TestHTTPServerTimeouts: a peer
// that never finishes its headers, or an idle keep-alive connection,
// must not hold a file descriptor forever.
const (
	// readHeaderTimeout bounds how long a connection may take to send
	// its request headers (Slowloris protection).
	readHeaderTimeout = 10 * time.Second
	// idleTimeout bounds how long a keep-alive connection may sit idle
	// between requests. Generous relative to request cadence: warm
	// clients polling every minute stay connected, abandoned sockets
	// do not.
	idleTimeout = 120 * time.Second
)

// httpServer builds the http.Server ListenAndServe runs: the handler
// plus the connection hygiene timeouts. ReadTimeout is deliberately
// unset — /sweep responses stream for as long as the grid takes, and
// the per-request ComputeDeadline already bounds compute.
func (s *Server) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// faultListener wraps the accept loop with the listener.drop fault
// point: a fired accept closes the connection immediately (the client
// sees a reset, exactly like a crashed peer) and keeps accepting.
type faultListener struct {
	net.Listener
	faults *fault.Plane
}

// faultListenerDrop is the listener-level fault point name (see
// internal/fault's catalog).
const faultListenerDrop = "listener.drop"

func (l *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || !l.faults.Fire(faultListenerDrop) {
			return c, err
		}
		c.Close()
	}
}

// ListenAndServe serves on addr until ctx is cancelled, then drains
// gracefully: new requests are refused (503, then the listener closes)
// while in-flight cells complete, bounded by drainTimeout.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	hs := s.httpServer(addr)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var lst net.Listener = ln
	if s.faults != nil {
		lst = &faultListener{Listener: ln, faults: s.faults}
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lst) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// instrument wraps a handler with the draining gate and per-endpoint
// request/latency metrics.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return s.wrap(endpoint, h, true)
}

// instrumentAlways is instrument without the draining gate: /readyz
// must keep answering while draining — reporting {"status":"draining"}
// as JSON is the whole point — where every other endpoint flips to a
// blanket 503.
func (s *Server) instrumentAlways(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return s.wrap(endpoint, h, false)
}

func (s *Server) wrap(endpoint string, h http.HandlerFunc, gateDrain bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		if gateDrain && s.draining.Load() {
			writeError(sw, http.StatusServiceUnavailable, "server is draining")
		} else if r.Method != http.MethodGet {
			sw.Header().Set("Allow", http.MethodGet)
			writeError(sw, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; endpoints are read-only GETs", r.Method))
		} else {
			h(sw, r)
		}
		s.met.observeRequest(endpoint, sw.code, time.Since(start))
	}
}

// statusWriter captures the response code for metrics while preserving
// the Flusher the streaming sweep handler needs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying Flusher so NDJSON streaming works
// through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// apiError is the structured error body every non-2xx JSON response
// carries: malformed axis values are a client's 400 with the same
// message the CLI would print, never a 500.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: msg})
}

// computeCell renders one cold cell: it re-checks the cache tiers
// (another flight may have landed it in memory, or a previous process
// in the disk store), runs the cell on the engine, and caches the
// rendered body in both tiers. Concurrent computations of the same key
// collapse into one flight. The caller must already hold a compute
// slot.
//
// Cancellation is mapped, not stringified: when a cell fails because
// the request context ended (client gone, or the compute deadline
// fired), the typed context error surfaces so handlers can answer 503
// instead of 500 — the engine confines everything, cancellation
// included, into Result.Err strings that errors.Is cannot see through.
// A follower whose flight leader was cancelled retries under its own
// still-live context rather than inheriting the leader's abort.
func (s *Server) computeCell(ctx context.Context, key core.CellKey) ([]byte, error) {
	addr := key.Encode()
	for {
		body, err, shared := s.flight.do(addr, func() ([]byte, error) {
			if b, ok := s.cache.lookup(addr); ok {
				return b, nil
			}
			if b, ok := s.diskLoad(addr); ok {
				return b, nil
			}
			if h := testComputeStall; h != nil {
				h(key)
			}
			start := time.Now()
			res, err := core.RunCell(ctx, key)
			if err == nil && res.Failed() {
				err = fmt.Errorf("cell %s: %s", addr, res.Err)
			}
			s.met.observeCompute(time.Since(start), err != nil)
			if err != nil {
				if ce := ctx.Err(); ce != nil {
					err = ce
				}
				return nil, err
			}
			b := marshalLine(newCell(key, &res))
			s.cache.put(addr, b)
			s.diskWrite(addr, b)
			return b, nil
		})
		if err != nil && shared && ctx.Err() == nil && isContextError(err) {
			continue
		}
		return body, err
	}
}

// isContextError reports whether err is a (wrapped) context
// cancellation or deadline error.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// diskLoad reads one body from the persistent tier, promoting a hit
// into the in-memory LRU. Everything the store refuses — absent,
// truncated, tampered, torn, cross-key aliased — is a plain miss; the
// caller falls through to compute, never to an error. IO-level
// failures (as opposed to refused entries) feed the circuit breaker,
// and while the breaker is open the disk is bypassed entirely: the
// server degrades to memory-only rather than paying a failing disk's
// latency on every request.
func (s *Server) diskLoad(addr string) ([]byte, bool) {
	if s.disk == nil {
		return nil, false
	}
	if !s.brk.allow() {
		s.met.diskBypassed.Add(1)
		return nil, false
	}
	b, ok, ioErr := s.disk.GetE(addr)
	if ioErr != nil {
		s.met.diskReadErrors.Add(1)
		s.brk.fail()
		return nil, false
	}
	if ok {
		s.brk.ok()
		s.cache.put(addr, b)
	} else {
		// A miss is only a weak health signal: it resolves a half-open
		// probe (the IO path worked) but must not reset the closed
		// state's failure count — see breaker.probeMiss.
		s.brk.probeMiss()
	}
	return b, ok
}

// diskWrite persists one rendered body write-behind, retrying a failed
// persist with exponential backoff (transient IO hiccups — a full
// fsync queue, a momentary EIO — usually clear in milliseconds). A
// write that exhausts its retries costs the restart-warm guarantee for
// this cell, not the response: it moves an error counter and feeds the
// circuit breaker, which after enough consecutive failures stops
// touching the disk at all until a cooldown probe succeeds.
func (s *Server) diskWrite(addr string, body []byte) {
	if s.disk == nil {
		return
	}
	if !s.brk.allow() {
		s.met.diskBypassed.Add(1)
		return
	}
	for attempt := 0; ; attempt++ {
		if err := s.disk.Put(addr, body); err == nil {
			s.brk.ok()
			return
		}
		if attempt >= s.opts.DiskRetries {
			break
		}
		s.met.diskWriteRetries.Add(1)
		time.Sleep(s.opts.DiskRetryBase << attempt)
	}
	s.met.diskWriteErrors.Add(1)
	s.brk.fail()
}

// WarmUp precomputes the canonical none+stock grid — the paper's
// primary efficacy surface — into the cache tiers, so a fresh process
// (or a restarted one pointed at a populated CacheDir) answers it with
// zero engine work. Cells already on disk load and promote; only
// genuinely new cells compute, bounded by GOMAXPROCS. It returns how
// many cells each path took. Safe to run concurrently with live
// traffic: it goes through the same flights and caches as any request.
func (s *Server) WarmUp(ctx context.Context) (loaded, computed int, err error) {
	return s.warmUp(ctx, nil, nil, []string{"none", "stock"})
}

// warmUp is WarmUp over an explicit axis selection (tests warm small
// slices; the canonical entry point warms the full none+stock grid).
func (s *Server) warmUp(ctx context.Context, archs, attacks, defenses []string) (loaded, computed int, err error) {
	keys, err := core.EnumerateCells(archs, attacks, defenses, core.CellOptions{Confidence: stats.DefaultConfidence, Seed: s.opts.Seed})
	if err != nil {
		return 0, 0, err
	}
	var nLoaded, nComputed atomic.Int64
	var firstErr atomic.Pointer[error]
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, key := range keys {
		if ctx.Err() != nil {
			break
		}
		addr := key.Encode()
		if s.cache.peek(addr) {
			continue
		}
		if _, ok := s.diskLoad(addr); ok {
			nLoaded.Add(1)
			continue
		}
		wg.Add(1)
		go func(key core.CellKey) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, cerr := s.computeCell(ctx, key); cerr != nil {
				firstErr.CompareAndSwap(nil, &cerr)
				return
			}
			nComputed.Add(1)
		}(key)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		err = *p
	}
	return int(nLoaded.Load()), int(nComputed.Load()), err
}
