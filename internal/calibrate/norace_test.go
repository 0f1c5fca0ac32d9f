//go:build !race

package calibrate

const raceEnabled = false
