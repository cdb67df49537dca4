//go:build !race

package executor

// raceEnabled reports whether the race detector is built in.
const raceEnabled = false
