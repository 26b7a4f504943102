//go:build race

package mpi

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
