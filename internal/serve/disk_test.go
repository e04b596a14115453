package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diskTarget is the cheap fixed-budget cell the disk-tier tests
// revolve around.
const diskTarget = "/cell?scenario=spectre-v1&arch=sgx&defense=none&samples=64&confidence=0"

// diskOpts builds server options sharing one persistent tier.
func diskOpts(dir string) Options {
	return Options{CacheDir: dir, CacheSecret: "test-secret"}
}

// metricsBody scrapes /metrics as text.
func metricsBody(t *testing.T, s *Server) string {
	t.Helper()
	return get(t, s, "/metrics").Body.String()
}

func mustContain(t *testing.T, metrics string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(metrics, l) {
			t.Errorf("/metrics missing %q:\n%s", l, metrics)
		}
	}
}

// TestRestartWarmDisk is the persistent tier's acceptance criterion: a
// fresh server pointed at a populated cache directory must answer the
// cell byte-identically to the cold compute with ZERO engine work —
// computed stays 0, the disk hit is accounted, and the response is
// marked as served from disk.
func TestRestartWarmDisk(t *testing.T) {
	dir := t.TempDir()

	a := newTestServer(diskOpts(dir))
	cold := get(t, a, diskTarget)
	if cold.Code != http.StatusOK || cold.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold = %d X-Cache=%q", cold.Code, cold.Header().Get("X-Cache"))
	}
	mustContain(t, metricsBody(t, a),
		"intrust_cells_computed_total 1",
		"intrust_disk_writes_total 1")

	// A new Server over the same directory is the restart: its LRU is
	// empty, only the disk tier carries state across.
	b := newTestServer(diskOpts(dir))
	warm := get(t, b, diskTarget)
	if warm.Code != http.StatusOK || warm.Header().Get("X-Cache") != "disk" {
		t.Fatalf("restart-warm = %d X-Cache=%q", warm.Code, warm.Header().Get("X-Cache"))
	}
	if cold.Body.String() != warm.Body.String() {
		t.Errorf("restart-warm body differs from cold compute:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	mustContain(t, metricsBody(t, b),
		"intrust_cells_computed_total 0",
		"intrust_disk_hits_total 1")

	// The disk hit promoted into the LRU: the next request is a memory
	// hit and touches the disk not at all.
	again := get(t, b, diskTarget)
	if again.Header().Get("X-Cache") != "hit" {
		t.Fatalf("post-promotion = X-Cache=%q, want hit", again.Header().Get("X-Cache"))
	}
	if again.Body.String() != cold.Body.String() {
		t.Error("promoted body differs from cold compute")
	}
}

// TestColdCellReadsDiskOnce: a cold cell on a disk-backed server reads
// the persistent tier exactly once, on /cell and on the /sweep path
// alike. Only the caller's tier walk reads it; the compute flight
// re-checks memory alone.
func TestColdCellReadsDiskOnce(t *testing.T) {
	s := newTestServer(diskOpts(t.TempDir()))
	if rec := get(t, s, diskTarget); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold = %d X-Cache=%q", rec.Code, rec.Header().Get("X-Cache"))
	}
	mustContain(t, metricsBody(t, s),
		"intrust_disk_misses_total 1\n",
		"intrust_cells_computed_total 1\n")

	const oneCell = "/sweep?attack=meltdown&arch=sgx&defense=none&samples=32&confidence=0"
	if rec := get(t, s, oneCell); rec.Code != http.StatusOK {
		t.Fatalf("cold one-cell sweep = %d", rec.Code)
	}
	mustContain(t, metricsBody(t, s),
		"intrust_disk_misses_total 2\n",
		"intrust_cells_computed_total 2\n")
}

// tamperEntries mutates every committed cache file under dir.
func tamperEntries(t *testing.T, dir string, mutate func([]byte) []byte) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.cell"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache entries under %s (err %v)", dir, err)
	}
	for _, f := range files {
		env, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, mutate(env), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

// TestTamperedDiskEntryIsMissNever500: every flavor of on-disk
// corruption must read as a miss — the cell recomputes (byte-identical
// to the original, as determinism guarantees), the bad file is
// quarantined, and the client never sees a 500 or a tampered body.
func TestTamperedDiskEntryIsMissNever500(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped-body-byte", func(e []byte) []byte { e[len(e)/2] ^= 0x01; return e }},
		{"truncated", func(e []byte) []byte { return e[:len(e)/3] }},
		{"trailing-byte", func(e []byte) []byte { return append(e, 'x') }},
		{"emptied", func(e []byte) []byte { return nil }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			a := newTestServer(diskOpts(dir))
			cold := get(t, a, diskTarget)
			if cold.Code != http.StatusOK {
				t.Fatalf("cold = %d", cold.Code)
			}
			tamperEntries(t, dir, tc.mutate)

			b := newTestServer(diskOpts(dir))
			rec := get(t, b, diskTarget)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				t.Fatalf("tampered read = %d X-Cache=%q; want 200 miss", rec.Code, rec.Header().Get("X-Cache"))
			}
			if rec.Body.String() != cold.Body.String() {
				t.Error("recomputed body differs from the original cold compute")
			}
			mustContain(t, metricsBody(t, b),
				"intrust_disk_rejects_total 1",
				"intrust_cells_computed_total 1")
			bad, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
			if len(bad) == 0 {
				t.Error("tampered file was not quarantined")
			}
		})
	}
}

// TestWrongSecretIsMiss: a directory written under another secret must
// not serve — poisoning a differently-keyed store buys nothing.
func TestWrongSecretIsMiss(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(Options{CacheDir: dir, CacheSecret: "alpha"})
	cold := get(t, a, diskTarget)

	b := newTestServer(Options{CacheDir: dir, CacheSecret: "beta"})
	rec := get(t, b, diskTarget)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cross-secret read = %d X-Cache=%q; want 200 miss", rec.Code, rec.Header().Get("X-Cache"))
	}
	if rec.Body.String() != cold.Body.String() {
		t.Error("recomputed body differs across secrets (determinism broken)")
	}
	mustContain(t, metricsBody(t, b), "intrust_disk_rejects_total 1")
}

// TestSweepServesFromDisk: the NDJSON grid path reads through the
// persistent tier too — a restarted server streams a warm selection
// with zero engine work.
func TestSweepServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	const sweepTarget = "/sweep?attack=transient&arch=sgx&defense=none&samples=32&confidence=0"
	a := newTestServer(diskOpts(dir))
	cold := get(t, a, sweepTarget)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold sweep = %d", cold.Code)
	}

	b := newTestServer(diskOpts(dir))
	warm := get(t, b, sweepTarget)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm sweep = %d", warm.Code)
	}
	// The final NDJSON line is the summary, whose hit/miss split
	// legitimately differs between the runs; every cell line must match
	// byte for byte.
	cells := func(stream string) string {
		lines := strings.Split(strings.TrimRight(stream, "\n"), "\n")
		return strings.Join(lines[:len(lines)-1], "\n")
	}
	if cells(warm.Body.String()) != cells(cold.Body.String()) {
		t.Errorf("restart-warm sweep cells differ:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	if !strings.Contains(warm.Body.String(), `"cache_hits":5`) {
		t.Errorf("warm sweep summary did not count 5 hits: %s", warm.Body)
	}
	mustContain(t, metricsBody(t, b), "intrust_cells_computed_total 0")
}

// TestWarmUp: warm-up computes a cold slice into both tiers, and a
// restarted server's warm-up loads the same slice purely from disk —
// after which default-option /cell requests are memory hits.
func TestWarmUp(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	a := newTestServer(diskOpts(dir))
	loaded, computed, err := a.warmUp(ctx, []string{"sgx"}, []string{"transient"}, []string{"none"})
	if err != nil {
		t.Fatalf("warmUp: %v", err)
	}
	if loaded != 0 || computed != 5 {
		t.Fatalf("first warm-up = %d loaded, %d computed; want 0/5", loaded, computed)
	}

	b := newTestServer(diskOpts(dir))
	loaded, computed, err = b.warmUp(ctx, []string{"sgx"}, []string{"transient"}, []string{"none"})
	if err != nil {
		t.Fatalf("restart warmUp: %v", err)
	}
	if loaded != 5 || computed != 0 {
		t.Fatalf("restart warm-up = %d loaded, %d computed; want 5/0", loaded, computed)
	}
	// Warmed cells answer default-option requests from memory.
	rec := get(t, b, "/cell?scenario=spectre-v1&arch=sgx&defense=none")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("post-warm-up cell = %d X-Cache=%q; want 200 hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	mustContain(t, metricsBody(t, b), "intrust_cells_computed_total 0")

	// Re-warming an already-warm server is a no-op on both counters.
	loaded, computed, err = b.warmUp(ctx, []string{"sgx"}, []string{"transient"}, []string{"none"})
	if err != nil || loaded != 0 || computed != 0 {
		t.Fatalf("idempotent warm-up = %d/%d (%v); want 0/0", loaded, computed, err)
	}
}

// TestDisklessServerUnchanged: with no CacheDir the server must behave
// exactly as before — no disk metrics, miss -> compute -> hit.
func TestDisklessServerUnchanged(t *testing.T) {
	s := newTestServer(Options{})
	if got := get(t, s, diskTarget).Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("cold = %q", got)
	}
	if got := get(t, s, diskTarget).Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("warm = %q", got)
	}
	if m := metricsBody(t, s); strings.Contains(m, "intrust_disk_") {
		t.Errorf("diskless /metrics exposes disk counters:\n%s", m)
	}
}
