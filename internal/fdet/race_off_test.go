//go:build !race

package fdet

const raceDetector = false
