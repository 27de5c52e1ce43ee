//go:build race

package fdet

// raceDetector reports whether the tests run under the race detector, which
// allocates on its own account and makes sync.Pool drop entries.
const raceDetector = true
