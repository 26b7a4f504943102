//go:build race

package experiments

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
