//go:build race

package packet

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random and pooled paths cannot hold an allocation budget.
const raceEnabled = true
