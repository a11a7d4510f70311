//go:build race

package obs

// raceEnabled reports whether the race detector is active; the
// concurrent registry hammer test scales its workload down under
// instrumentation (the stream package uses the same pattern).
const raceEnabled = true
