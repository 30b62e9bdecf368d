//go:build !race

package analysis

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
