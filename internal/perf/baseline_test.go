package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFileUpsertMatchRoundTrip pins the container semantics: one entry
// per environment, refresh-in-place, deterministic order, and a lossless
// write/read cycle.
func TestFileUpsertMatchRoundTrip(t *testing.T) {
	one := &Report{Schema: Schema, GoVersion: "go1.24.0", GOMAXPROCS: 1, Parallel: 1,
		Configs: []Result{{Name: "grid", CellsPerSec: 70}}}
	eight := &Report{Schema: Schema, GoVersion: "go1.24.0", GOMAXPROCS: 8, Parallel: 8,
		Configs: []Result{{Name: "grid", CellsPerSec: 400}}}

	var f File
	f.Upsert(eight)
	f.Upsert(one)
	if len(f.Environments) != 2 || f.Environments[0].GOMAXPROCS != 1 {
		t.Fatalf("environments after upserts: %+v", f.Environments)
	}

	// Refreshing an environment replaces its entry, never appends.
	refreshed := &Report{Schema: Schema, GoVersion: "go1.24.0", GOMAXPROCS: 1, Parallel: 1,
		Configs: []Result{{Name: "grid", CellsPerSec: 75}}}
	f.Upsert(refreshed)
	if len(f.Environments) != 2 {
		t.Fatalf("refresh appended: %d environments", len(f.Environments))
	}
	if got := f.Match(one); got == nil || got.Configs[0].CellsPerSec != 75 {
		t.Fatalf("match after refresh = %+v", got)
	}
	if f.Match(&Report{GoVersion: "go1.25.0", GOMAXPROCS: 1, Parallel: 1}) != nil {
		t.Fatal("matched a foreign environment")
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Environments) != 2 || back.Match(eight) == nil {
		t.Fatalf("round trip lost entries: %+v", back.Environments)
	}
}
