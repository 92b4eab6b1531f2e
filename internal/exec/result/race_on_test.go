//go:build race

package result

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
