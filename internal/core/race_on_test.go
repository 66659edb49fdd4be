//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation makes allocation budgets unmeasurable.
const raceEnabled = true
