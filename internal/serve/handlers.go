package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

// Cell is the JSON rendering of one grid cell — what /cell returns and
// /sweep streams one-per-line. It deliberately excludes wall-clock
// fields: a cell body is a pure function of its key, so cold and cached
// responses (and responses across restarts) are byte-identical.
type Cell struct {
	// Key is the canonical cache address the cell was computed under.
	Key string `json:"key"`
	// Scenario, Family, Arch are the cell's grid coordinates.
	Scenario string `json:"scenario"`
	Family   string `json:"family"`
	Arch     string `json:"arch"`
	// Defense is the canonical axis label ("none", "stock",
	// "ct-aes+clock-jitter"); Resolved is the display form with stock
	// wiring expanded ("stock (way-partition)").
	Defense  string `json:"defense"`
	Resolved string `json:"resolved_defense"`
	// Samples is the effective reference budget.
	Samples int `json:"samples"`
	// Verdict is the scenario's raw verdict; Class its normalized
	// broken/mitigated/n-a grading.
	Verdict string `json:"verdict"`
	Class   string `json:"class"`
	// Detail is the verdict's basis note (or the n/a reason).
	Detail string `json:"detail,omitempty"`
	// Metrics are the scenario's named scalar measurements.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Sampling is the adaptive sequential-sampling decision (nil for
	// fixed-budget and n/a cells).
	Sampling *stats.Decision `json:"sampling,omitempty"`
}

// newCell projects an engine result onto the wire shape.
func newCell(key core.CellKey, r *engine.Result) Cell {
	return Cell{
		Key:      key.Encode(),
		Scenario: key.Scenario,
		Family:   r.Experiment.Attack,
		Arch:     key.Arch,
		Defense:  key.Defense,
		Resolved: r.Experiment.Defense,
		Samples:  r.Experiment.Samples,
		Verdict:  r.Verdict,
		Class:    scenario.VerdictClass(r.Verdict),
		Detail:   r.Detail,
		Metrics:  r.Metrics,
		Sampling: r.Sampling,
	}
}

// SweepSummary is the final line of a /sweep NDJSON stream (it carries
// a "cells" field, which no Cell line has, so clients can tell them
// apart without schema negotiation).
type SweepSummary struct {
	Cells       int            `json:"cells"`
	CacheHits   int            `json:"cache_hits"`
	CacheMisses int            `json:"cache_misses"`
	Verdicts    map[string]int `json:"verdicts,omitempty"`
	// Error is set when the stream stopped before streaming every
	// selected cell: the summary line still arrives, so a client can
	// always distinguish "sweep failed mid-stream" (summary with error)
	// from "connection truncated" (no summary line at all).
	Error string `json:"error,omitempty"`
}

// axisToken normalizes one HTTP axis value: trimmed, with spaces
// restored to '+'. Query-string parsing decodes an unescaped '+' as a
// space, which would silently mangle every scenario ("flush+reload")
// and defense-combination name; restoring it here means both the
// %2B-escaped and the literal-plus spelling of a URL address the same
// cell. No axis name legitimately contains a space.
func axisToken(s string) string {
	return strings.ReplaceAll(strings.TrimSpace(s), " ", "+")
}

// axisList splits a comma-separated HTTP axis value into normalized
// tokens (empty tokens drop, an empty list means the axis default).
func axisList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = axisToken(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// cellOptions parses the shared measurement knobs (samples, confidence,
// maxsamples, seed) from a query, defaulting exactly like the sweep
// CLI: 256 samples, adaptive sampling at the default confidence.
func (s *Server) cellOptions(q url.Values) (core.CellOptions, error) {
	opt := core.CellOptions{Samples: 0, Confidence: stats.DefaultConfidence, Seed: s.opts.Seed}
	if v := q.Get("samples"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opt, fmt.Errorf("samples: %q is not an integer", v)
		}
		opt.Samples = n
	}
	if v := q.Get("confidence"); v != "" {
		c, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return opt, fmt.Errorf("confidence: %q is not a number", v)
		}
		opt.Confidence = c
	}
	if v := q.Get("maxsamples"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opt, fmt.Errorf("maxsamples: %q is not an integer", v)
		}
		opt.MaxSamples = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return opt, fmt.Errorf("seed: %q is not an integer", v)
		}
		opt.Seed = n
	}
	return opt, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readiness is the /readyz body: a load balancer's routing decision in
// one field, with the disk breaker's state alongside for operators.
type readiness struct {
	// Status is healthy (full service), degraded (serving memory-only
	// because the disk breaker is not closed — still routable), or
	// draining (shutting down — stop routing here).
	Status string `json:"status"`
	// Disk is the persistent tier's breaker state (closed, open,
	// half-open); omitted when no disk tier is configured.
	Disk string `json:"disk,omitempty"`
}

// handleReadyz reports readiness as JSON. Unlike every other endpoint
// it keeps answering while draining (registered through
// instrumentAlways): draining is a state it must report, not a gate
// that should blank it. Degraded is still 200 — a memory-only server
// answers correctly, just cold across restarts — while draining is 503
// so balancers stop routing.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readiness{Status: "healthy"}
	if s.disk != nil {
		state := s.brk.snapshot()
		body.Disk = stateName(state)
		if state != breakerClosed {
			body.Status = "degraded"
		}
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// computeCtx derives the context a request's admission wait and
// compute run under: the request context (client disconnect propagates
// as cancellation) bounded by Options.ComputeDeadline when one is set.
func (s *Server) computeCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.ComputeDeadline > 0 {
		return context.WithTimeout(r.Context(), s.opts.ComputeDeadline)
	}
	return r.Context(), func() {}
}

// writeComputeError maps a compute failure onto its status: a fired
// compute deadline or a vanished client is a 503 (the service is
// refusing/abandoning work, not broken), anything else is the 500 it
// always was.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.deadlineRejects.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("compute deadline %s exceeded; narrow the selection or raise -deadline", s.opts.ComputeDeadline))
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled before the result was ready")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleCell serves one grid cell: resolve the canonical key through
// the sweep's own axis parsers (malformed values are structured 400s),
// answer warm hits straight from the cache, and compute cold cells
// under admission.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opt, err := s.cellOptions(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := core.ResolveCell(axisToken(q.Get("scenario")), axisToken(q.Get("arch")), axisToken(q.Get("defense")), opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A cell body is a pure function of its canonical key, so the ETag
	// derives from the content *address*, not the content: revalidation
	// is sound even for cells this process has never computed — if the
	// client holds a body for this address, that body is current. A warm
	// revalidate (and even a cold one) is therefore a 304 with zero
	// compute.
	etag := cellETag(key)
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.met.revalidations.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if body, ok := s.cache.get(key.Encode()); ok {
		writeCell(w, body, "hit")
		return
	}
	// The persistent tier: a restart-warm cell serves (and promotes into
	// the LRU) without admission or engine work; anything the store
	// refuses falls through to compute as a plain miss.
	if body, ok := s.diskLoad(key.Encode()); ok {
		writeCell(w, body, "disk")
		return
	}
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()
	body, err := s.computeCell(ctx, key)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	writeCell(w, body, "miss")
}

// cellETag renders a cell's entity tag: a digest of the canonical
// content address. Strong (no W/ prefix) because equal addresses imply
// byte-equal bodies.
func cellETag(key core.CellKey) string {
	sum := sha256.Sum256([]byte(key.Encode()))
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatch implements If-None-Match per RFC 9110 §13.1.2 for strong
// tags: a comma-separated candidate list, "*" matching anything, and
// weak-prefixed candidates compared by opaque value (weak comparison is
// allowed for If-None-Match).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// writeCell writes one cached (newline-terminated) JSON body with its
// X-Cache disposition. Bodies are terminated at marshal time, never
// here: appending to a shared cached slice could race in its spare
// capacity.
func writeCell(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	w.Write(body)
}

// writeAdmissionError maps an acquire failure: a full queue is 429 with
// a Retry-After hint (backpressure, not failure) derived from observed
// load, a cancelled client or fired deadline is 503.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	if err == errQueueFull {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "admission queue full; retry later")
		return
	}
	s.writeComputeError(w, err)
}

// retryAfterSeconds derives the 429 Retry-After hint from observed
// load instead of a constant: the mean cold-cell compute cost seen so
// far, times the work queued ahead of a re-arriving client (current
// waiters + in-flight + the client itself), spread across the compute
// slots. Before any cold cell has landed a 250ms prior stands in for
// the mean. Clamped to [1, 60]: sub-second answers still say 1 (the
// header is integer seconds), and even a deeply backed-up queue should
// re-probe within a minute rather than trusting a stale estimate.
func (s *Server) retryAfterSeconds() int {
	avg := 0.25
	if n := s.met.cellsComputed.Load(); n > 0 {
		avg = float64(s.met.cellComputeUS.Load()) / 1e6 / float64(n)
	}
	ahead := float64(s.adm.waiting.Load() + s.adm.inFlight.Load() + 1)
	secs := int(math.Ceil(avg * ahead / float64(s.opts.MaxInFlight)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleSweep streams a grid selection as NDJSON, one Cell per line in
// the CLI sweep's enumeration order, then one SweepSummary line. Warm
// cells flow immediately; cold cells compute concurrently (bounded by
// GOMAXPROCS inside the request's single admission slot) a batch ahead
// of the write cursor, so a mostly-warm 1280-cell grid starts flowing
// in microseconds instead of after the last cold cell.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opt, err := s.cellOptions(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defenses := axisList(q.Get("defense"))
	if len(defenses) == 0 {
		defenses = []string{"stock"}
	}
	keys, err := core.EnumerateCells(axisList(q.Get("arch")), axisList(q.Get("attack")), defenses, opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Admission is request-scoped and decided before the first byte:
	// once streaming starts the status code is committed, so a
	// selection that needs any cold compute must win its slot (or 429)
	// up front. Fully-warm selections bypass admission entirely. The
	// scan consults only the memory tier: a disk-warm selection takes a
	// slot it will barely use, which is the conservative direction — a
	// cell whose disk entry later fails authentication still computes
	// under a held slot, never outside the admission bound.
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	var release func()
	for _, k := range keys {
		if !s.cache.peek(k.Encode()) {
			if release, err = s.adm.acquire(ctx); err != nil {
				s.writeAdmissionError(w, err)
				return
			}
			defer release()
			break
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sum := SweepSummary{Cells: len(keys), Verdicts: map[string]int{}}
	enc := json.NewEncoder(w)
	workers := runtime.GOMAXPROCS(0)
	batch := 4 * workers
	for start := 0; start < len(keys); start += batch {
		end := start + batch
		if end > len(keys) {
			end = len(keys)
		}
		bodies := make([][]byte, end-start)
		errs := make([]error, end-start)
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := start; i < end; i++ {
			addr := keys[i].Encode()
			if b, ok := s.cache.get(addr); ok {
				bodies[i-start] = b
				sum.CacheHits++
				continue
			}
			if b, ok := s.diskLoad(addr); ok {
				bodies[i-start] = b
				sum.CacheHits++
				continue
			}
			sum.CacheMisses++
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				bodies[i-start], errs[i-start] = s.computeCell(ctx, keys[i])
			}(i)
		}
		wg.Wait()
		for i := range bodies {
			if errs[i] != nil {
				// Headers are long gone; surface the failure as a
				// distinguishable NDJSON error line, then still emit
				// the terminal summary with the error recorded — a
				// stream that simply ends is indistinguishable from a
				// dropped connection, a summary with an error field is
				// a deliberate stop.
				enc.Encode(apiError{Error: errs[i].Error()})
				sum.Error = errs[i].Error()
				enc.Encode(sum)
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			w.Write(bodies[i])
			s.met.cellsStreamed.Add(1)
			var c Cell
			if json.Unmarshal(bodies[i], &c) == nil && c.Verdict != "" {
				sum.Verdicts[c.Verdict]++
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

// catalogJSON marshals the attack and defense catalogs once; both are
// immutable after init.
type attackEntry struct {
	Name       string            `json:"name"`
	Family     string            `json:"family"`
	Section    string            `json:"section,omitempty"`
	Summary    string            `json:"summary,omitempty"`
	Sampling   string            `json:"sampling"`
	MinSamples int               `json:"min_samples,omitempty"`
	Applicable []string          `json:"applicable"`
	NA         map[string]string `json:"not_applicable,omitempty"`
}

type defenseEntry struct {
	Name       string            `json:"name"`
	Family     string            `json:"family"`
	Section    string            `json:"section,omitempty"`
	Summary    string            `json:"summary,omitempty"`
	Blocks     []string          `json:"blocks,omitempty"`
	StockOn    []string          `json:"stock_on,omitempty"`
	Applicable []string          `json:"applicable"`
	NA         map[string]string `json:"not_applicable,omitempty"`
}

// buildCatalogs renders the immutable attack and defense catalogs once
// at construction (lazy init from concurrent handlers would race).
func (s *Server) buildCatalogs() {
	var attacks []attackEntry
	for _, sc := range scenario.All() {
		section, summary := scenario.DescriptionOf(sc)
		applicable, na := scenario.ApplicableArchitectures(sc)
		attacks = append(attacks, attackEntry{
			Name:       sc.Name(),
			Family:     sc.Family(),
			Section:    section,
			Summary:    summary,
			Sampling:   scenario.SamplingCell(sc),
			MinSamples: scenario.MinSamplesOf(sc),
			Applicable: applicable,
			NA:         na,
		})
	}
	s.attacks = marshalLine(attacks)
	var defenses []defenseEntry
	for _, d := range defense.All() {
		section, summary := defense.DescriptionOf(d)
		applicable, na := defense.ApplicableArchitectures(d)
		defenses = append(defenses, defenseEntry{
			Name:       d.Name(),
			Family:     d.Family(),
			Section:    section,
			Summary:    summary,
			Blocks:     defense.BlocksOf(d),
			StockOn:    defense.StockOnOf(d),
			Applicable: applicable,
			NA:         na,
		})
	}
	s.defenses = marshalLine(defenses)
}

// marshalLine marshals v with a trailing newline baked in (see
// writeCell for why termination happens at marshal time).
func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal catalog: %v", err))
	}
	return append(b, '\n')
}

func (s *Server) handleAttacks(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.attacks)
}

func (s *Server) handleDefenses(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.defenses)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.cache, s.disk, s.adm, s.brk, s.faults)
}
