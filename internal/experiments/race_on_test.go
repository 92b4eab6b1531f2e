//go:build race

package experiments

// raceEnabled reports whether the race detector instruments this build;
// timing bounds it distorts skip under it.
const raceEnabled = true
