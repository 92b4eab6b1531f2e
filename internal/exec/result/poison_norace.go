//go:build !race

package result

import "repro/internal/storage"

// poison leaves a released chunk as it is: recycled memory is not cleared
// (see poison_race.go for the race detector's build).
func poison([]storage.Word) {}
