package engine

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/relation"
)

// TestMain runs every suite of the package with the use-after-release
// guard on: a gathered bind's slab is scribbled over the moment it is
// released (NaN floats, flipped masks, -1 slots), so whatever reads a
// bound form, a column image or a slot list past its release — a
// result-cache entry built too late, a merge touching a shard's form, an
// abandoned worker's memory handed to the next statement — shows up in the
// agreement batteries as a wrong answer or an index panic.
func TestMain(m *testing.M) {
	relation.PoisonReleasedSlabs(true)
	os.Exit(m.Run())
}

// atProcs runs the rest of the test at n Ps: the planner sizes partitioned
// plans by relation.Procs(), the scheduler's GOMAXPROCS.
func atProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
