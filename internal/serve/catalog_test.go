package serve

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite the pinned /attacks and /defenses bodies in testdata/")

// TestCatalogBodiesPinned compares the /attacks and /defenses bodies
// byte for byte against testdata/. The catalogs are derived from the
// scenario and defense registries, so any change to a record's metadata,
// its applicability or the enumeration order shows here. Refresh with
// `go test ./internal/serve -run TestCatalogBodiesPinned -update`.
func TestCatalogBodiesPinned(t *testing.T) {
	s := newTestServer(Options{})
	for _, c := range []struct{ target, file string }{
		{"/attacks", "attacks.json"},
		{"/defenses", "defenses.json"},
	} {
		rec := get(t, s, c.target)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", c.target, rec.Code)
		}
		path := filepath.Join("testdata", c.file)
		if *updatePins {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s missing (run with -update): %v", path, err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s body differs from %s (%d vs %d bytes)", c.target, path, rec.Body.Len(), len(want))
		}
	}
}
