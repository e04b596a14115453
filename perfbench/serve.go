package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/serve"
	"github.com/intrust-sim/intrust/internal/stats"
)

// The serve-zipf traffic: a closed loop of serveConns callers issuing
// /cell GETs to the server's handler in-process. Loopback TCP is left
// out on purpose: its syscalls and cross-CPU wakeups made request
// latency and throughput track the host's load far more than the
// server's own work. Warm requests follow Zipf(zipfS) over a
// seeded permutation of the warm grid; about coldShare of requests are
// cold: a warm-grid coordinate at a fresh seed, never repeated. Cold
// coordinates walk a second seeded permutation a whole number of times
// per run, evenly spaced, so every run computes the same multiset of
// cold cells whatever the seed, and its cold work does not hinge on how
// many expensive (dpa, cpa) cells one seed happens to draw. Requests run
// in windows of serveWindow; each window is one throughput sample.
const (
	serveConns  = 2
	serveWindow = 10000
	// serveWindowNominal sets the run's window count: one window per
	// 0.5 s of --seconds. A window takes about half that on a 2-core
	// machine; the other half of the budget pays for the three warm-ups.
	serveWindowNominal = 500 * time.Millisecond
	zipfS              = 1.1
	coldShare          = 0.002
	serveLRU           = 64
	serveSecret        = "perfbench"
	tailPct            = 99.0
	minTailCount       = 10
)

// Tiers as the X-Cache response header names them.
const (
	tierMem  = "hit"
	tierDisk = "disk"
	tierCold = "miss"
)

var tierNames = map[string]string{tierMem: "mem_hit", tierDisk: "disk_hit", tierCold: "cold"}

// cellOpts are the /cell defaults (adaptive at the default confidence,
// default budget) at a given base seed.
func cellOpts(seed int64) core.CellOptions {
	return core.CellOptions{Confidence: stats.DefaultConfidence, Seed: seed}
}

// warmCoords is the none+stock grid serve.WarmUp precomputes.
func warmCoords() ([]core.CellKey, error) {
	return core.EnumerateCells(nil, nil, []string{"none", "stock"}, cellOpts(0))
}

func cellURL(k core.CellKey, seed int64) string {
	q := url.Values{"scenario": {k.Scenario}, "arch": {k.Arch}, "defense": {k.Defense}}
	if seed != 0 {
		q.Set("seed", strconv.FormatInt(seed, 10))
	}
	return "/cell?" + q.Encode()
}

// request is one generated /cell GET and what its body must be.
type request struct {
	url  string
	cold bool
	want []byte // warm: the exact body; cold: the body's required prefix
}

// trafficGen draws the seeded request sequence.
type trafficGen struct {
	zipf   *rand.Zipf
	perm   []int // Zipf rank -> warm coordinate
	cold   []int // cold draw order over the warm coordinates
	every  int   // one request in every is cold ...
	limit  int64 // ... up to limit cold requests in all
	offset int
	n      int
	coldN  int64
	seed   int64
	keys   []core.CellKey
	warm   []request
}

// newTrafficGen prepares the sequence of total requests.
func newTrafficGen(seed int64, keys []core.CellKey, ref map[string][]byte, total int) *trafficGen {
	rng := rand.New(rand.NewSource(seed))
	cycles := int(math.Max(1, math.Round(float64(total)*coldShare/float64(len(keys)))))
	every := total / (cycles * len(keys))
	g := &trafficGen{
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1)),
		perm:   rng.Perm(len(keys)),
		cold:   rng.Perm(len(keys)),
		every:  every,
		limit:  int64(cycles * len(keys)),
		offset: rng.Intn(every),
		seed:   seed,
		keys:   keys,
	}
	for _, k := range keys {
		g.warm = append(g.warm, request{url: cellURL(k, 0), want: ref[k.Encode()]})
	}
	return g
}

func (g *trafficGen) next() (request, error) {
	i := g.n
	g.n++
	if i%g.every != g.offset || g.coldN == g.limit {
		return g.warm[g.perm[g.zipf.Uint64()]], nil
	}
	k := g.keys[g.cold[g.coldN%int64(len(g.cold))]]
	g.coldN++
	seed := g.seed*1_000_000 + g.coldN
	key, err := core.ResolveCell(k.Scenario, k.Arch, k.Defense, cellOpts(seed))
	if err != nil {
		return request{}, err
	}
	prefix, err := json.Marshal(key.Encode())
	if err != nil {
		return request{}, err
	}
	return request{url: cellURL(k, seed), cold: true,
		want: append([]byte(`{"key":`), prefix...)}, nil
}

// outcome is what one request returned.
type outcome struct {
	ms      float64 // +Inf when the request failed
	tier    string
	samples int // cold cells: samples the engine spent
	err     string
}

// setUpServe warms a fresh disk-tier directory through serve.WarmUp and
// captures every warm cell's body from the warmed server.
func setUpServe(ctx context.Context, keys []core.CellKey) (dir string, ref map[string][]byte, err error) {
	dir, err = os.MkdirTemp(tmpRoot(), "serve-")
	if err != nil {
		return "", nil, err
	}
	srv, err := serve.New(serve.Options{CacheDir: dir, CacheSecret: serveSecret})
	if err != nil {
		return dir, nil, err
	}
	_, computed, err := srv.WarmUp(ctx)
	if err != nil {
		return dir, nil, fmt.Errorf("warm-up: %w", err)
	}
	if computed != len(keys) {
		return dir, nil, fmt.Errorf("warm-up computed %d cells, want %d", computed, len(keys))
	}
	ref = make(map[string][]byte, len(keys))
	for _, k := range keys {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cellURL(k, 0), nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != tierMem {
			return dir, nil, fmt.Errorf("warm cell %s: status %d, X-Cache %q", k.Encode(), rec.Code, rec.Header().Get("X-Cache"))
		}
		ref[k.Encode()] = rec.Body.Bytes()
	}
	return dir, ref, nil
}

func runServe(r *runCtx) error {
	ctx := context.Background()
	keys, err := warmCoords()
	if err != nil {
		return err
	}
	var dirs []string
	var ref map[string][]byte
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	setup, err := repeatSetup(3, func() error {
		d, rf, err := setUpServe(ctx, keys)
		if d != "" {
			dirs = append(dirs, d)
		}
		if err != nil {
			return err
		}
		for k, b := range ref {
			if !bytes.Equal(rf[k], b) {
				r.problem("warm-up bodies differ between set-ups for %s", k)
			}
		}
		ref = rf
		return nil
	})
	if err != nil {
		return err
	}
	dir := dirs[len(dirs)-1]
	r.E2E["setup_s"] = setup

	// Restart over the warmed directory with a small memory tier, so the
	// Zipf head hits memory and the tail hits disk.
	srv, err := serve.New(serve.Options{CacheDir: dir, CacheSecret: serveSecret, CacheEntries: serveLRU})
	if err != nil {
		return err
	}
	windows := r.passes(serveWindowNominal, 5)
	gen := newTrafficGen(r.seed, keys, ref, windows*serveWindow)
	var ivs []interval
	var all []outcome
	var p50s, tails []float64
	minBeyond := math.MaxInt
	for len(ivs) < windows {
		reqs := make([]request, serveWindow)
		for i := range reqs {
			if reqs[i], err = gen.next(); err != nil {
				return err
			}
		}
		settle()
		win := r.tr.open(0, "perfbench", "window", "")
		a := snapshot()
		outs := runWindow(srv, reqs, r.tr, win)
		b := snapshot()
		r.tr.close(win)
		ivs = append(ivs, between(a, b, len(reqs)))
		all = append(all, outs...)
		p50s, tails, minBeyond = windowLatency(outs, p50s, tails, minBeyond)
	}
	r.Attempted = int64(len(all))

	tally := map[string]int64{}
	var coldSamples []float64
	for _, o := range all {
		if o.err != "" {
			r.failOp("%s", o.err)
			continue
		}
		tally[o.tier]++
		if o.tier == tierCold {
			coldSamples = append(coldSamples, float64(o.samples))
		}
	}
	if err := crossCheckMetrics(srv, tally, int64(len(all))); err != nil {
		r.problem("%v", err)
	}
	r.Counts = map[string]int64{"requests": int64(len(all)), "cold": tally[tierCold]}

	costMetrics(ivs, r.E2E)
	lat := make([]float64, len(all))
	for i, o := range all {
		lat[i] = o.ms
	}
	sort.Float64s(lat)
	tail, beyond := percentile(lat, tailPct)
	lo, _ := percentile(lat, tailPct-1)
	hi, _ := percentile(lat, (tailPct+100)/2)
	r.note("tail: over all %d requests p%g = %.4f ms with %d samples beyond it (p%g %.4f ms, p%g %.4f ms); fewest beyond p%g in one window: %d",
		len(lat), tailPct, tail, beyond, tailPct-1, lo, (tailPct+100)/2, hi, tailPct, minBeyond)
	if minBeyond < minTailCount {
		r.problem("tail guard: only %d samples beyond p%g in a window (need %d)", minBeyond, tailPct, minTailCount)
	}
	r.E2E["latency_p50_ms"] = fastQuarter(p50s)
	r.E2E["latency_tail_ms"] = fastQuarter(tails)
	var sum float64
	for _, s := range coldSamples {
		sum += s
	}
	r.E2E["samples_per_cell"] = sum / float64(len(coldSamples))
	for tier, name := range tierNames {
		r.Layers["serve."+name+"_share"] = float64(tally[tier]) / float64(len(all))
	}
	r.note("tiers: %d memory, %d disk, %d cold of %d requests", tally[tierMem], tally[tierDisk], tally[tierCold], len(all))
	if r.tr != nil {
		byTier := map[string][]float64{}
		for _, s := range r.tr.spans {
			if s.Layer == "serve" {
				byTier[s.Tag] = append(byTier[s.Tag], float64(s.Dur)/1e6)
			}
		}
		for tier, name := range tierNames {
			r.Layers["serve."+name+"_ms_p50"] = median(byTier[tier])
		}
	}
	return nil
}

// windowLatency appends one window's p50 and tail latency and tracks
// the fewest samples any window had beyond its tail percentile. A failed
// request's latency is infinite, so failures land in the tail; an
// infinite percentile is clamped to the largest float so it still
// encodes, and the failure marks the run incorrect.
func windowLatency(outs []outcome, p50s, tails []float64, minBeyond int) ([]float64, []float64, int) {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = o.ms
	}
	sort.Float64s(lat)
	p50, _ := percentile(lat, 50)
	tail, beyond := percentile(lat, tailPct)
	return append(p50s, math.Min(p50, math.MaxFloat64)), append(tails, math.Min(tail, math.MaxFloat64)), min(minBeyond, beyond)
}

// runWindow issues reqs from serveConns closed-loop callers and returns
// one outcome per request, in request order.
func runWindow(h http.Handler, reqs []request, tr *tracer, parent int32) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				outs[i] = doRequest(h, &reqs[i])
				d := time.Since(start)
				if outs[i].err == "" {
					outs[i].ms = durMS(d)
				}
				tr.record(parent, "serve", "GET /cell", outs[i].tier, start, d)
			}
		}()
	}
	wg.Wait()
	return outs
}

// doRequest performs one GET and checks its status, tier and body.
func doRequest(h http.Handler, q *request) outcome {
	failed := func(format string, args ...any) outcome {
		return outcome{ms: math.Inf(1), err: fmt.Sprintf(format, args...)}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.url, nil))
	if rec.Code != http.StatusOK {
		return failed("GET %s: status %d", q.url, rec.Code)
	}
	o := outcome{tier: rec.Header().Get("X-Cache")}
	body := rec.Body.Bytes()
	switch {
	case q.cold:
		if o.tier != tierCold {
			return failed("GET %s: cold request answered from tier %q", q.url, o.tier)
		}
		if !bytes.HasPrefix(body, q.want) {
			return failed("GET %s: body key is not the requested key", q.url)
		}
		var c serve.Cell
		if err := json.Unmarshal(body, &c); err != nil {
			return failed("GET %s: %v", q.url, err)
		}
		switch {
		case c.Sampling != nil:
			o.samples = c.Sampling.SamplesUsed
		case c.Class != "n/a":
			o.samples = c.Samples
		}
	case o.tier != tierMem && o.tier != tierDisk:
		return failed("GET %s: warm request answered from tier %q", q.url, o.tier)
	case !bytes.Equal(body, q.want):
		return failed("GET %s: %s body differs from the warm-up body", q.url, o.tier)
	}
	return o
}

// crossCheckMetrics compares the client's tier tallies with the
// server's own /metrics counters.
func crossCheckMetrics(h http.Handler, tally map[string]int64, total int64) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got, err := parseMetrics(rec.Body)
	if err != nil {
		return err
	}
	want := map[string]int64{
		"intrust_cache_hits_total":                            tally[tierMem],
		"intrust_disk_hits_total":                             tally[tierDisk],
		"intrust_cells_computed_total":                        tally[tierCold],
		`intrust_requests_total{endpoint="/cell",code="200"}`: total,
	}
	var bad []string
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			bad = append(bad, fmt.Sprintf("%s = %d, client counted %d", name, g, w))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return errors.New("/metrics disagrees with the client: " + strings.Join(bad, "; "))
	}
	return nil
}

// parseMetrics reads integer samples from a Prometheus text exposition.
func parseMetrics(rd io.Reader) (map[string]int64, error) {
	m := map[string]int64{}
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := cutLast(line, " ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			m[name] = n
		}
	}
	return m, sc.Err()
}
