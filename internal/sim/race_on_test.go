//go:build race

package sim

// raceEnabled reports a -race build, under which sync.Pool drops a
// random share of Puts on purpose.
const raceEnabled = true
