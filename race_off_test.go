//go:build !race

package corep

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
