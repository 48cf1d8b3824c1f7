package engine

import (
	"repro/internal/boundcache"
	"repro/internal/relation"
)

// The statistics cache: relation.Stats keyed by relation identity and
// mutation version (shared mechanics in internal/boundcache, alongside
// the result and score caches). The Auto planner samples statistics
// per plan; on an unchanged relation that analysis is identical every
// time, and on a disk-backed relation it is the single most expensive
// part of a warm query — the row-path columns decode pages through the
// buffer pool. Caching per (relation, version) makes the
// warm steady state skip analysis outright; Insert/SortBy bump the
// version and strand stale entries, and Drop/Replace sweeps them through
// the shared boundcache registry (engine.EvictRelation).

// statsCacheCap bounds the number of cached analyses.
const statsCacheCap = 64

var statsCache = boundcache.New[*relation.Stats](statsCacheCap)

// cachedStats returns the statistics of r, sampled over statsSample rows,
// through the stats cache. Ephemeral relations (query intermediates) bypass the cache —
// their identity never recurs, so an entry could only pin dead rows. A
// *relation.Stats is never mutated after AnalyzeSample, so sharing one
// across queries and goroutines is safe.
func cachedStats(r *relation.Relation) *relation.Stats {
	if r == nil {
		return nil
	}
	if r.Ephemeral() {
		return relation.AnalyzeSample(r, statsSample)
	}
	key := boundcache.Key{Src: r, Version: r.Version(), Term: "stats"}
	if s, hit := statsCache.Get(key); hit {
		return s
	}
	s := relation.AnalyzeSample(r, statsSample)
	statsCache.Put(key, s)
	return s
}
