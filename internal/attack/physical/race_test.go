//go:build race

package physical

func init() { raceDetectorEnabled = true }
