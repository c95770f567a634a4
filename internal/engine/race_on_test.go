//go:build race

package engine

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it (instrumentation changes the numbers).
const raceEnabled = true
