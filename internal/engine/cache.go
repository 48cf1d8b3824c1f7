package engine

import (
	"repro/internal/boundcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// What the engine keeps across statements: the result cache
// (internal/engine/resultcache) of whole-shard maxima, next to rank's
// score vectors, both keyed by live relation identity (Origin) and
// generation version through internal/boundcache. The planner's
// statistics are no cache: they live on the generation they describe
// (relation.Stats) and retire with it. A statement's bound forms —
// preference score vectors, selection bitmaps, quality vectors, visit
// orders — are per-statement state: the statement binds what it needs
// (bind.go) and drops it when it ends.

// EvictRelation releases every entry cached against the relation — result
// maxima and rank score vectors alike (the sweep runs through the shared
// boundcache registry). Callers drop or replace catalog relations through
// it so the stale entries stop pinning the relation's rows until ordinary
// capacity eviction; see psql.Catalog.Drop. Both caches key by the live
// identity, so one sweep also covers every entry recorded through a
// Snapshot view of the relation. The eviction is strictly a cache
// release, never a reclamation: a pinned snapshot still references its
// generation's rows and column arrays directly, so in-flight queries keep
// evaluating their epoch untorn and the arrays retire with the last
// reader. It returns the number of entries released.
func EvictRelation(r *relation.Relation) int {
	if r == nil {
		return 0
	}
	return boundcache.EvictSource(r)
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
