//go:build race

package pql

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = true
