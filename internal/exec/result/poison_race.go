//go:build race

package result

import "repro/internal/storage"

// poisonWord fills every chunk a released set hands back when the race
// detector is on, as in the race tests: rows read after their set was
// released then carry it, and no longer match the bytes a reply of them
// should make.
const poisonWord storage.Word = 0x5eed_dead_5eed_dead

func poison(chunk []storage.Word) {
	for i := range chunk {
		chunk[i] = poisonWord
	}
}
