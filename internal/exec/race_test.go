//go:build race

package exec

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own account: allocation bounds hold only without it.
const raceEnabled = true
