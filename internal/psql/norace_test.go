//go:build !race

package psql

// raceEnabled reports a binary built with the race detector (see
// race_test.go).
const raceEnabled = false
