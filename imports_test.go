package intrust

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestKeysComeFromFuses guards the one-root-secret design: every key in
// the simulated hardware derives from a platform fuse, a cell seed or a
// caller's reader, so crypto/rand may be imported only by the attestation
// primitives, for the freshness values (verifier nonces, sealing IVs)
// whose unpredictability is the point. Quotes have one scheme, Ed25519:
// no file may bring back crypto/ecdsa or crypto/elliptic.
func TestKeysComeFromFuses(t *testing.T) {
	const randOwner = "internal/attest/attest.go"
	fset := token.NewFileSet()
	scanned := false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Hidden and testdata trees hold no module code; a nested
			// go.mod (perfbench) marks another module.
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		scanned = scanned || filepath.ToSlash(path) == randOwner
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case p == "crypto/ecdsa" || p == "crypto/elliptic":
				t.Errorf("%s imports %s: quotes are Ed25519 only (internal/attest)", path, p)
			case p == "crypto/rand" && !strings.HasSuffix(path, "_test.go") && filepath.ToSlash(path) != randOwner:
				t.Errorf("%s imports crypto/rand: derive keys from the platform fuse (attest.DeriveKey) or the cell seed", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !scanned {
		t.Fatalf("scan never reached %s: run from the module root", randOwner)
	}
}
