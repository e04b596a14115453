//go:build race

package defense

func init() { raceDetectorEnabled = true }
