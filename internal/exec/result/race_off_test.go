//go:build !race

package result

const raceEnabled = false
