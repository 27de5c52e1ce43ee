//go:build race

package sim

// raceDetector reports whether the tests run under the race detector, which
// allocates on its own account (see TestStepAllocs).
const raceDetector = true
