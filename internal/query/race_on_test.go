//go:build race

package query

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it (instrumentation changes the numbers).
const raceEnabled = true
