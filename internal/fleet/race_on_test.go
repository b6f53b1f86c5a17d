//go:build race

package fleet

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
