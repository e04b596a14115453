//go:build race

package perf

// The race runtime allocates sporadically on its own account, which the
// MemStats-based allocation measurement cannot distinguish from substrate
// allocations; the exact-zero pin only holds (and only matters) in the
// uninstrumented build perfbench measures.
func init() { raceDetectorEnabled = true }
