//go:build !race

package training

// raceEnabled reports whether the race detector is built in.
const raceEnabled = false
