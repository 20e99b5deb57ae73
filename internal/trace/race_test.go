//go:build race

package trace

// raceEnabled: the race detector allocates on its own account, so
// allocation counts are not asserted under it.
const raceEnabled = true
