package perf

import "testing"

// raceDetectorEnabled is set by race_test.go under `go test -race`.
var raceDetectorEnabled bool

// TestAllocsPerAccessIsZero pins the substrate's headline property: the
// flattened cache hot path does not allocate.
func TestAllocsPerAccessIsZero(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime allocates on its own account; the zero pin holds only uninstrumented")
	}
	if a := AllocsPerAccess(); a != 0 {
		t.Errorf("AllocsPerAccess = %v, want 0", a)
	}
}
