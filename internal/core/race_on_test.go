//go:build race

package core

// raceDetector reports whether the tests run under the race detector, where
// allocation budgets are looser (see TestOneShotAllocBudget).
const raceDetector = true
