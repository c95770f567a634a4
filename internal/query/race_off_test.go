//go:build !race

package query

const raceEnabled = false
