//go:build race

package psql

// raceEnabled reports a binary built with the race detector, whose
// sync.Pool drops a share of what it is handed back: pooled statement
// memory is allocated again more often.
const raceEnabled = true
