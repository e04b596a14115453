package scenario

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
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

// TestForeshadowMountIsCollected pins the collection at the end of a
// Foreshadow mount. With automatic collection off, a mount returns with
// only its outcome added to the heap, not the SGX server it assembled
// (about 7 MiB), so no later cycle's goal is sized on that server.
func TestForeshadowMountIsCollected(t *testing.T) {
	sc, ok := Default.Lookup("foreshadow")
	if !ok {
		t.Fatal("foreshadow is not registered")
	}
	env, err := NewEnv("sgx", 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := sc.Run(env)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict == "" {
		t.Fatal("foreshadow returned no verdict")
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Errorf("a Foreshadow mount returned with %.1f MiB more heap than it started with; want its server collected",
			float64(grew)/(1<<20))
	}
}
