//go:build !race

package memsim_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
