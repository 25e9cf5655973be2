//go:build race

package harness

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = true
