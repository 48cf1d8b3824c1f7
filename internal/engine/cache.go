package engine

import (
	"repro/internal/pref"
	"repro/internal/relation"
)

// What the engine keeps across statements lives on the generation it
// describes (relation.Memo): the result cache's whole-shard maxima
// (resultserve.go, carried across Inserts by resultmaint.go), rank's
// score vectors and the planner's statistics (relation.Stats). A
// dropped table, a displaced shard or a superseded generation frees them
// with its rows; nothing sweeps. A statement's bound forms — preference
// score vectors, selection bitmaps, quality vectors, visit orders — are
// per-statement state: the statement binds what it needs (bind.go) and
// drops it when it ends.

// EvictRelation reports 0: cached entries live on the relation's
// generations and are freed with them. The benchmark harness still
// calls it.
func EvictRelation(*relation.Relation) int { return 0 }

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
