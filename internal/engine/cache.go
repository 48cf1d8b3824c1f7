package engine

import (
	"repro/internal/boundcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// What the engine keeps across statements: the result cache
// (internal/engine/resultcache) and the planner's statistics
// (statscache.go), both keyed by relation identity and version through
// internal/boundcache, next to rank's score vectors. A statement's bound
// forms — preference score vectors, selection bitmaps, quality vectors,
// visit orders — are per-statement state: the statement binds what it
// needs (bind.go) and drops it when it ends.

// EvictRelation releases every entry cached against the relation — result
// maxima, statistics and rank score vectors alike (the sweep runs through
// the shared boundcache registry). Callers drop or replace catalog
// relations through it so the stale entries stop pinning the relation's
// rows until ordinary capacity eviction; see psql.Catalog.Drop. The sweep
// also covers the current generation's memoized Snapshot view, whose
// entries are keyed by the view's own identity; superseded generations'
// views are unreachable by then and their entries fall to capacity
// eviction. The eviction is strictly a cache release, never a
// reclamation: a pinned snapshot still references its generation's rows
// and column arrays directly, so in-flight queries keep evaluating their
// epoch untorn and the arrays retire with the last reader. It returns the
// number of entries released.
func EvictRelation(r *relation.Relation) int {
	if r == nil {
		return 0
	}
	n := boundcache.EvictSource(r)
	if sv, ok := r.PeekSnapshot(); ok && sv != r {
		n += boundcache.EvictSource(sv)
	}
	return n
}

// CompileCached reports false: no bound form outlives its statement. The
// benchmark harness still calls it.
func CompileCached(pref.Preference, *relation.Relation) bool { return false }

// CompileCacheStats reports 0, 0: there is no compile cache. The
// benchmark harness still calls it.
func CompileCacheStats() (hits, misses uint64) { return 0, 0 }

// ResetCompileCache zeroes the gathered-bind count (GatheredBinds). The
// benchmark harness still calls it.
func ResetCompileCache() { gatheredBinds.Store(0) }

// ResetStreamOrderCache does nothing: a sharded stream sorts its visit
// orders per stream. The benchmark harness still calls it.
func ResetStreamOrderCache() {}
