package scenario

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/attack/transient"
)

// TestSGXFuseFollowsCellSeed pins how a Foreshadow cell keys its SGX
// server: the platform fuse derives from the cell seed alone, so one seed
// replays the same quoting key (the bytes Foreshadow extracts), distinct
// seeds give distinct platforms, and building the server draws nothing
// from the cell RNG.
func TestSGXFuseFollowsCellSeed(t *testing.T) {
	target := func(seed int64) []byte {
		env, err := NewEnv("sgx", 8, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := env.SGX()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := env.RNG.Int63(), rand.New(rand.NewSource(seed)).Int63(); got != want {
			t.Fatalf("seed %d: Env.SGX drew from the cell RNG", seed)
		}
		res, err := transient.ForeshadowSGX(s, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != len(res.Target) {
			t.Fatalf("seed %d: unmitigated Foreshadow recovered %d/%d bytes", seed, res.Correct, len(res.Target))
		}
		return res.Target
	}
	a, again, b := target(1), target(1), target(2)
	if !bytes.Equal(a, again) {
		t.Fatalf("one cell seed, two quoting keys: %x vs %x", a, again)
	}
	if bytes.Equal(a, b) {
		t.Fatalf("seeds 1 and 2 gave the same quoting key %x", a)
	}
}
