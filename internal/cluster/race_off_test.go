//go:build !race

package cluster

// raceEnabled reports whether the race detector is active; the
// allocation test is meaningless under its instrumentation.
const raceEnabled = false
