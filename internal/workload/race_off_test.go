//go:build !race

package workload

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
