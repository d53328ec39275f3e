//go:build race

package pciesim

// raceEnabled reports whether the tests were built with -race, whose
// instrumentation allocates and would swamp allocation budgets.
const raceEnabled = true
