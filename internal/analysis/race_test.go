//go:build race

package analysis

// raceEnabled reports whether the tests run under the race detector, which
// slows the single-goroutine lasso sweeps about twentyfold; they then take
// coarser steps through the same ranges.
const raceEnabled = true
