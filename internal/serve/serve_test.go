package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/stats"
)

// raceDetectorEnabled is set by race_test.go under `go test -race`.
var raceDetectorEnabled bool

func newTestServer(opts Options) *Server {
	s, err := New(opts)
	if err != nil {
		panic("newTestServer: " + err.Error())
	}
	return s
}

// get performs one in-process GET against the handler stack (through
// instrument, so codes and headers are exactly what a client sees).
func get(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func TestHealthz(t *testing.T) {
	s := newTestServer(Options{})
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(Options{})
	for _, target := range []string{"/cell", "/sweep", "/metrics"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", target, rec.Code)
		}
		if rec.Header().Get("Allow") != http.MethodGet {
			t.Errorf("POST %s Allow = %q, want GET", target, rec.Header().Get("Allow"))
		}
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("POST %s body %q is not a structured error", target, rec.Body.String())
		}
	}
}

// TestCellColdWarm pins the cache contract end to end: the warm
// response is byte-identical to the cold one (X-Cache flipping
// miss -> hit is the only difference a client can observe), and every
// accepted spelling of the URL lands on the same entry.
func TestCellColdWarm(t *testing.T) {
	s := newTestServer(Options{})
	const target = "/cell?scenario=flush%2Breload&arch=sgx&defense=none&samples=64"
	cold := get(t, s, target)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold = %d %s", cold.Code, cold.Body.String())
	}
	if h := cold.Header().Get("X-Cache"); h != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", h)
	}
	warm := get(t, s, target)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm = %d %s", warm.Code, warm.Body.String())
	}
	if h := warm.Header().Get("X-Cache"); h != "hit" {
		t.Fatalf("warm X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("warm body differs from cold:\ncold: %s\nwarm: %s", cold.Body.String(), warm.Body.String())
	}
	// Alternate spellings of the same cell: literal '+' (query parsing
	// decodes it as a space), mixed case, permuted combos — all hits on
	// the one entry the cold request populated.
	for _, alt := range []string{
		"/cell?scenario=flush+reload&arch=sgx&defense=none&samples=64",
		"/cell?scenario=Flush%2BReload&arch=SGX&defense=None&samples=64",
	} {
		rec := get(t, s, alt)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Errorf("%s = %d X-Cache=%q, want a 200 hit", alt, rec.Code, rec.Header().Get("X-Cache"))
		}
		if !bytes.Equal(rec.Body.Bytes(), cold.Body.Bytes()) {
			t.Errorf("%s body differs from canonical spelling", alt)
		}
	}
	var c Cell
	if err := json.Unmarshal(cold.Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if c.Scenario != "flush+reload" || c.Arch != "sgx" || c.Defense != "none" {
		t.Errorf("cell coordinates = %q/%q/%q", c.Scenario, c.Arch, c.Defense)
	}
	if c.Class == "" || c.Verdict == "" {
		t.Errorf("cell verdict empty: %+v", c)
	}
	if dec, err := core.DecodeCellKey(c.Key); err != nil || dec.Scenario != "flush+reload" {
		t.Errorf("cell key %q does not decode to its own coordinates (%v)", c.Key, err)
	}
}

func TestCellSeedAddressesDistinctEntries(t *testing.T) {
	s := newTestServer(Options{})
	a := get(t, s, "/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=32")
	b := get(t, s, "/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=32&seed=7")
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("codes %d/%d", a.Code, b.Code)
	}
	if b.Header().Get("X-Cache") != "miss" {
		t.Errorf("different seed served from the same cache entry")
	}
	var ca, cb Cell
	json.Unmarshal(a.Body.Bytes(), &ca)
	json.Unmarshal(b.Body.Bytes(), &cb)
	if ca.Key == cb.Key {
		t.Errorf("seed 0 and seed 7 share key %q", ca.Key)
	}
}

// TestCellBadRequest pins the malformed-input contract: every bad axis
// or knob value is a structured 400 carrying a usable message — never a
// 500, never an empty body.
func TestCellBadRequest(t *testing.T) {
	s := newTestServer(Options{})
	cases := []struct{ name, target string }{
		{"unknown scenario", "/cell?scenario=rowhammer&arch=sgx"},
		{"family token", "/cell?scenario=transient&arch=sgx"},
		{"all scenarios", "/cell?scenario=all&arch=sgx"},
		{"missing scenario", "/cell?arch=sgx"},
		{"unknown arch", "/cell?scenario=dpa&arch=riscv"},
		{"all archs", "/cell?scenario=dpa&arch=all"},
		{"missing arch", "/cell?scenario=dpa"},
		{"unknown defense", "/cell?scenario=dpa&arch=sgx&defense=moat"},
		{"defense family", "/cell?scenario=dpa&arch=sgx&defense=all"},
		{"bad samples", "/cell?scenario=dpa&arch=sgx&samples=many"},
		{"bad confidence", "/cell?scenario=dpa&arch=sgx&confidence=high"},
		{"low confidence", "/cell?scenario=dpa&arch=sgx&confidence=0.3"},
		{"confidence one", "/cell?scenario=dpa&arch=sgx&confidence=1"},
		{"nan confidence", "/cell?scenario=dpa&arch=sgx&confidence=NaN"},
		{"inf confidence", "/cell?scenario=dpa&arch=sgx&confidence=%2BInf"},
		{"bad maxsamples", "/cell?scenario=dpa&arch=sgx&maxsamples=1e3"},
		{"bad seed", "/cell?scenario=dpa&arch=sgx&seed=0x10"},
		// An unbounded budget would grow the trace arena until the
		// runtime dies of out-of-memory, a fatal no handler recovers.
		{"oversized samples", "/cell?scenario=dpa&arch=smart&defense=none&confidence=0&samples=2000000000"},
		{"oversized maxsamples", "/cell?scenario=dpa&arch=smart&confidence=0.9&maxsamples=2000000000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, s, tc.target)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s = %d %s, want 400", tc.target, rec.Code, rec.Body.String())
			}
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%s body %q is not a structured error", tc.target, rec.Body.String())
			}
		})
	}
	for _, tc := range []string{
		"/sweep?attack=nothing",
		"/sweep?arch=riscv",
		"/sweep?defense=moat",
		"/sweep?samples=many",
		"/sweep?confidence=0.2",
		"/sweep?attack=dpa&samples=2000000000",
	} {
		rec := get(t, s, tc)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", tc, rec.Code)
		}
	}
	mustContain(t, metricsBody(t, s), "intrust_cells_computed_total 0")
}

// TestCellMatchesGoldenGrid samples the checked-in golden grid fixture
// and asserts /cell reproduces each sampled cell's class through the
// HTTP surface — the service returns the paper's table, not a variant
// of it.
func TestCellMatchesGoldenGrid(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_grid.tsv"))
	if err != nil {
		t.Fatalf("golden grid fixture: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	stride := 37
	if raceDetectorEnabled || testing.Short() {
		stride = 149
	}
	s := newTestServer(Options{})
	checked := 0
	for i := 0; i < len(lines); i += stride {
		f := strings.Split(lines[i], "\t")
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", lines[i])
		}
		scen, arch, def, class := f[0], f[1], f[2], f[3]
		target := "/cell?samples=96&scenario=" + strings.ReplaceAll(scen, "+", "%2B") +
			"&arch=" + arch + "&defense=" + strings.ReplaceAll(def, "+", "%2B")
		rec := get(t, s, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d %s", target, rec.Code, rec.Body.String())
		}
		var c Cell
		if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		if c.Class != class {
			t.Errorf("%s/%s/%s: /cell class %q, golden %q", scen, arch, def, c.Class, class)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d golden cells sampled", checked)
	}
}

// decodeSweep splits an NDJSON sweep stream into its cell lines and the
// trailing summary, failing the test on any malformed or error line.
func decodeSweep(t *testing.T, body []byte) ([]string, []Cell, SweepSummary) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty sweep stream")
	}
	var sum SweepSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || sum.Cells == 0 {
		t.Fatalf("last line %q is not a summary (%v)", lines[len(lines)-1], err)
	}
	cellLines := lines[:len(lines)-1]
	cells := make([]Cell, len(cellLines))
	for i, ln := range cellLines {
		var e apiError
		if json.Unmarshal([]byte(ln), &e) == nil && e.Error != "" {
			t.Fatalf("stream carries error line: %s", e.Error)
		}
		if err := json.Unmarshal([]byte(ln), &cells[i]); err != nil {
			t.Fatalf("cell line %q: %v", ln, err)
		}
	}
	return cellLines, cells, sum
}

// TestSweepStreamMatchesCLI is the cross-surface verdict equivalence
// guard at the grid level: the NDJSON stream must carry exactly the
// cells the CLI sweep enumerates, in order, with identical verdicts —
// and a second pass must be all cache hits with byte-identical lines.
func TestSweepStreamMatchesCLI(t *testing.T) {
	s := newTestServer(Options{})
	const target = "/sweep?attack=cachesca&arch=sgx,trustzone&defense=none,stock&samples=48"
	rec := get(t, s, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	coldLines, cells, sum := decodeSweep(t, rec.Body.Bytes())

	exps, err := core.SweepExperimentsWith(
		[]string{"sgx", "trustzone"}, []string{"cachesca"}, []string{"none", "stock"},
		core.SweepOptions{Samples: 48, Adaptive: &stats.Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(0).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(results) {
		t.Fatalf("stream carries %d cells, CLI sweep %d", len(cells), len(results))
	}
	if sum.Cells != len(results) || sum.CacheMisses != len(results) || sum.CacheHits != 0 {
		t.Errorf("cold summary %+v, want %d cells all misses", sum, len(results))
	}
	for i := range cells {
		r := &results[i]
		if cells[i].Verdict != r.Verdict || cells[i].Detail != r.Detail {
			t.Errorf("cell %d (%s): stream verdict %q/%q, CLI %q/%q",
				i, r.Name, cells[i].Verdict, cells[i].Detail, r.Verdict, r.Detail)
		}
		if !strings.Contains(r.Name, "/"+cells[i].Scenario+"/") {
			t.Errorf("cell %d order mismatch: stream %s, CLI %s", i, cells[i].Scenario, r.Name)
		}
	}

	warm := get(t, s, target)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm sweep = %d", warm.Code)
	}
	warmLines, _, warmSum := decodeSweep(t, warm.Body.Bytes())
	if warmSum.CacheHits != len(cells) || warmSum.CacheMisses != 0 {
		t.Errorf("warm summary %+v, want all %d hits", warmSum, len(cells))
	}
	for i := range coldLines {
		if coldLines[i] != warmLines[i] {
			t.Fatalf("warm cell line %d differs from cold:\ncold: %s\nwarm: %s", i, coldLines[i], warmLines[i])
		}
	}
}

// TestSweepFullGridMatchesCLI replays the entire default grid (every
// scenario, every architecture, none+stock) through the stream. Skipped
// in -short and race runs; the small-grid equivalence above covers the
// wiring there.
func TestSweepFullGridMatchesCLI(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("full 320-cell grid replay skipped in short/race mode")
	}
	s := newTestServer(Options{})
	rec := get(t, s, "/sweep?defense=none,stock&samples=64")
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d", rec.Code)
	}
	_, cells, sum := decodeSweep(t, rec.Body.Bytes())
	exps, err := core.SweepExperimentsWith(nil, nil, []string{"none", "stock"},
		core.SweepOptions{Samples: 64, Adaptive: &stats.Policy{}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(0).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(results) || sum.Cells != len(results) {
		t.Fatalf("stream %d cells, CLI %d", len(cells), len(results))
	}
	for i := range cells {
		if cells[i].Verdict != results[i].Verdict {
			t.Errorf("cell %d (%s): stream %q, CLI %q", i, results[i].Name, cells[i].Verdict, results[i].Verdict)
		}
	}
}

func TestCatalogs(t *testing.T) {
	s := newTestServer(Options{})
	var attacks []attackEntry
	rec := get(t, s, "/attacks")
	if rec.Code != http.StatusOK {
		t.Fatalf("/attacks = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &attacks); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range attacks {
		names[a.Name] = true
		if len(a.Applicable) == 0 {
			t.Errorf("attack %s applicable to nothing", a.Name)
		}
	}
	if len(attacks) < 16 || !names["flush+reload"] || !names["dpa"] {
		t.Errorf("attack catalog incomplete: %d entries", len(attacks))
	}
	var defenses []defenseEntry
	rec = get(t, s, "/defenses")
	if rec.Code != http.StatusOK {
		t.Fatalf("/defenses = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &defenses); err != nil {
		t.Fatal(err)
	}
	if len(defenses) < 10 {
		t.Errorf("defense catalog incomplete: %d entries", len(defenses))
	}
}

// TestMetricsEndpoint drives known traffic and checks the counters it
// must have moved, plus the exposition families the scrape contract
// names.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(Options{})
	get(t, s, "/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=32") // miss
	get(t, s, "/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=32") // hit
	get(t, s, "/cell?scenario=bogus&arch=sgx")                              // 400
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"intrust_cache_hits_total 1",
		"intrust_cache_misses_total 1",
		"intrust_cache_entries 1",
		"intrust_cells_computed_total 1",
		`intrust_requests_total{endpoint="/cell",code="200"} 2`,
		`intrust_requests_total{endpoint="/cell",code="400"} 1`,
		"intrust_request_seconds_bucket",
		"intrust_inflight_requests 0",
		"intrust_queue_waiting 0",
		"intrust_rejected_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestDrainingRefusesRequests(t *testing.T) {
	s := newTestServer(Options{})
	s.BeginDrain()
	for _, target := range []string{"/healthz", "/cell?scenario=dpa&arch=sgx"} {
		rec := get(t, s, target)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("draining %s = %d, want 503", target, rec.Code)
		}
	}
}
