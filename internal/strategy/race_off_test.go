//go:build !race

package strategy

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
