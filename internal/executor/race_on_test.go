//go:build race

package executor

// raceEnabled reports whether the race detector is built in. Under it
// sync.Pool drops items at random, so allocation counts are not pinned.
const raceEnabled = true
