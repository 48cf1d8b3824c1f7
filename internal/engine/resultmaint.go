package engine

import (
	"math"

	"repro/internal/engine/resultcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Incremental maintenance: the write side of the result cache. Instead
// of invalidating on Insert, every cached BMO answer of the superseded
// generation is carried forward to the successor by checking only the
// newcomer against the cached maxima — O(|maxima|) dominance tests per
// write versus the O(n·|maxima|) full recompute a cold query pays.
//
// Soundness, for any strict partial order <P (so for every preference
// constructor, not just chain products): let M be the maxima of
// candidate set C and t the appended tuple.
//
//   - If some m ∈ M dominates t (t <P m), then maxima(C ∪ {t}) = M:
//     t is not maximal, and t cannot dominate any member of M — t <P m
//     plus m′ <P t for some m′ ∈ M would give m′ <P m by transitivity,
//     contradicting M's mutual incomparability.
//   - Otherwise t is maximal in C ∪ {t}: any dominator of t would have a
//     maximal dominator in M by finite transitive closure, and no m ∈ M
//     dominates t. The new maxima are (M minus the members t dominates)
//     plus t — no non-maximal row can newly dominate a member of M.
//
// Checking against M alone is therefore exact. Row positions are stable
// under append (Insert never reorders), so carried indices stay valid;
// SortBy and bulk reloads publish whole generations without firing the
// hook, so their version bump strands cached entries naturally.
//
// The carry *copies* entries to version+1 rather than moving them: the
// superseded generation's entries stay readable for sessions pinned to a
// pre-insert Snapshot — the snapshot-isolation contract — and retire via
// the boundcache layer's stale-version-first capacity eviction.

func init() {
	relation.RegisterInsertHook(maintainResultCache)
	relation.RegisterDisplacedHook(evictDisplacedShards)
}

// evictDisplacedShards sweeps every cache keyed by a shard identity a
// Reshard displaced: compiled preference and filter bound forms, rank
// score/perm vectors and memoized BMO maxima all key by (shard
// relation, version), and the displaced shards are unreachable from
// the table afterwards — without the sweep their entries (including
// stale maxima) survive until capacity eviction. Registered as a
// relation.DisplacedHook so the sweep runs inside Reshard itself,
// for every caller, not just the ones that remember to use the
// returned displaced list.
func evictDisplacedShards(shards []*relation.Relation) {
	for _, sh := range shards {
		EvictRelation(sh)
	}
}

// maintainResultCache carries every cached result of r's superseded
// generation to the successor. It runs inside Insert's writer critical
// section, so carries on one relation are serialized and each observes a
// consecutive version transition.
func maintainResultCache(r *relation.Relation, oldVersion uint64, newIdx int) {
	entries := resultcache.AtVersion(r, oldVersion)
	if len(entries) == 0 {
		return
	}
	t := r.Tuple(newIdx)
	for term, e := range entries {
		resultcache.Put(r, oldVersion+1, term, carryEntry(e, r, t, newIdx))
		resultcache.NoteCarry()
	}
}

// carryEntry produces the successor generation's entry for one cached
// result given the appended tuple t at position newIdx.
func carryEntry(e *resultcache.Entry, r *relation.Relation, t pref.Tuple, newIdx int) *resultcache.Entry {
	if e.Where != nil && !e.Where.Eval(t) {
		// Outside the candidate set: the result is untouched, and the
		// entry is immutable, so the successor can share it outright.
		return e
	}
	if e.Coords != nil {
		if c, ok := newcomerCoords(e.Dims, t); ok {
			return carryCoords(e, c, newIdx)
		}
	}
	return carryInterpreted(e, r, t, newIdx)
}

// newcomerCoords scores the appended tuple on the entry's chain
// dimensions; ok=false when any coordinate is ±Inf, where coordinate
// dominance can collapse distinct value classes (the pref.InfCollapse
// hazard) — the interpreted path takes over.
func newcomerCoords(dims []pref.Scorer, t pref.Tuple) ([]float64, bool) {
	c := make([]float64, len(dims))
	for d, s := range dims {
		c[d] = s.ScoreOf(t)
		if math.IsInf(c[d], 0) {
			return nil, false
		}
	}
	return c, true
}

// carryCoords is the chain-product fast path: raw coordinate dominance
// (dominates: a NaN coordinate blocks dominance, as in the block kernel)
// against the stored maxima coordinates.
func carryCoords(e *resultcache.Entry, c []float64, newIdx int) *resultcache.Entry {
	for _, mc := range e.Coords {
		if dominates(mc, c) {
			ne := *e
			ne.Dominated++
			return &ne
		}
	}
	ne := &resultcache.Entry{Pref: e.Pref, Where: e.Where, Dominated: e.Dominated, Dims: e.Dims}
	ne.Maxima = make([]int, 0, len(e.Maxima)+1)
	ne.Coords = make([][]float64, 0, len(e.Coords)+1)
	for k, m := range e.Maxima {
		if dominates(c, e.Coords[k]) {
			ne.Dominated++
			continue
		}
		ne.Maxima = append(ne.Maxima, m)
		ne.Coords = append(ne.Coords, e.Coords[k])
	}
	// newIdx is the largest position in the generation, so appending
	// preserves ascending order.
	ne.Maxima = append(ne.Maxima, newIdx)
	ne.Coords = append(ne.Coords, c)
	return ne
}

// carryInterpreted checks the newcomer with the preference's own Less —
// exact for every constructor, O(|maxima|) interpreted dominance tests.
// When the newcomer is admitted through this path the successor entry
// drops the coordinate fast path (the newcomer's coordinates were not
// provably collapse-free); maintenance stays correct, just interpreted,
// for subsequent writes.
func carryInterpreted(e *resultcache.Entry, r *relation.Relation, t pref.Tuple, newIdx int) *resultcache.Entry {
	p := e.Pref
	for _, m := range e.Maxima {
		if p.Less(t, r.Tuple(m)) {
			ne := *e
			ne.Dominated++
			return &ne
		}
	}
	ne := &resultcache.Entry{Pref: p, Where: e.Where, Dominated: e.Dominated}
	ne.Maxima = make([]int, 0, len(e.Maxima)+1)
	for _, m := range e.Maxima {
		if p.Less(r.Tuple(m), t) {
			ne.Dominated++
			continue
		}
		ne.Maxima = append(ne.Maxima, m)
	}
	ne.Maxima = append(ne.Maxima, newIdx)
	return ne
}
