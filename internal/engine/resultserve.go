package engine

import (
	"context"
	"math"
	"slices"

	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Result-cache serving: the read side of internal/engine/resultcache.
// The cache memoizes the finished BMO maxima of whole shards keyed by the
// live relation identity (Origin — so lookups through a pinned Snapshot
// view and through the live relation land on one key), the generation
// version and the preference's canonical term key. Only a keyed
// bmoSharded call serves it (EvalIndicesCtxKeyed below,
// BMOShardedOnCtxKeyed, and BMOShardedOnFilteredCtxKeyed with keyed set),
// and only for a shard whose candidate slot is nil — every row of the
// shard. Everything else (a candidate subset, BMOIndices*, an unkeyed
// BMOShardedOnFilteredCtxKeyed) always evaluates, so one-shot WHERE
// statements store nothing and benchmarks and agreement baselines keep
// measuring real work.

// resultTerm is the result-cache term of a keyed evaluation call: the
// preference's canonical key, rendered once per call and reused by every
// shard. ok=false means the query must bypass the result cache: the
// preference has no faithful canonical key.
type resultTerm struct {
	term string
	ok   bool
}

// termOf renders the result-cache term of σ[P](R).
func termOf(p pref.Preference) resultTerm {
	term, ok := pref.CacheKey(p)
	return resultTerm{term: term, ok: ok}
}

// resultKey derives the result-cache addressing over one relation: the
// identity the entry files under, the generation version to read, and the
// term. ok=false for an unkeyable statement and for ephemeral relations
// (identity fresh per query).
func (k resultTerm) resultKey(r *relation.Relation) (src any, version uint64, term string, ok bool) {
	if !k.ok || r == nil || r.Ephemeral() {
		return nil, 0, "", false
	}
	return r.Origin(), r.Version(), k.term, true
}

// buildResultEntry packages a finished evaluation for the cache,
// attaching the chain-product coordinate fast path when the preference
// flattens to chain dimensions over numeric columns and no maximum scores
// ±Inf on any of them (±Inf coordinates can collapse distinct value
// classes — the pref.InfCollapse hazard — and a TIME dimension ties
// unequal instants within a second, so maintenance falls back to
// interpreted dominance for them). The coordinates come out of the score
// vectors of the whole-shard bound form that just evaluated; only an
// interpreted evaluation re-derives them through ScoreOf.
func buildResultEntry(p pref.Preference, r *relation.Relation, ev evaluated) *resultcache.Entry {
	e := &resultcache.Entry{Pref: p, Maxima: slices.Clone(ev.maxima)}
	dims, ok := chainDims(p)
	if !ok || !chainImagesExact(dims, r) {
		return e
	}
	coords, bound := ev.chainCoords()
	if !bound {
		coords = make([][]float64, len(ev.maxima))
		for k, i := range ev.maxima {
			t := r.Tuple(i)
			coords[k] = make([]float64, len(dims))
			for d, s := range dims {
				coords[k][d] = s.ScoreOf(t)
			}
		}
	}
	for _, c := range coords {
		for _, v := range c {
			if math.IsInf(v, 0) {
				return e
			}
		}
	}
	e.Dims, e.Coords = dims, coords
	return e
}

// EvalIndicesCtxKeyed is the keyed soft step over the candidate row
// positions idx of r (nil means every row) under a context: bmoSharded
// over r as its one shard, under the BMOShardedOnCtxKeyed contract and the
// strict policy. Only a nil idx reaches the result cache; where is
// ignored (a WHERE-scoped candidate set always evaluates).
func EvalIndicesCtxKeyed(ctx context.Context, p pref.Preference, r *relation.Relation, alg Algorithm, idx []int, where filter.Pred) ([]int, error) {
	s := relation.OneShard(r)
	out, _, err := bmoSharded(ctx, p, s, alg, ShardSets{idx}, true, nil, Robust{})
	if err != nil {
		return nil, err
	}
	return out.GlobalIDs(s), nil
}

// ResultCacheState reports the serving status EXPLAIN prints for a
// flat BMO step: "hit" (a maxima set for the current generation is
// cached), "cold" (keyable but absent) or "bypass" (a WHERE-scoped step,
// or a term that cannot be keyed) — ResultCachedShards over r as its one
// shard.
func ResultCacheState(p pref.Preference, r *relation.Relation, where filter.Pred) string {
	switch n, ok := ResultCachedShards(p, relation.OneShard(r), where); {
	case !ok:
		return "bypass"
	case n == 1:
		return "hit"
	}
	return "cold"
}

// ResultCachedShards counts the shards of s whose local maxima for p
// are cached at their current versions, for EXPLAIN's sharded status
// line. ok=false when the step bypasses the cache: a non-nil where (its
// candidate sets are no whole shards) or a term that cannot be keyed.
func ResultCachedShards(p pref.Preference, s *relation.Sharded, where filter.Pred) (int, bool) {
	if where != nil {
		return 0, false
	}
	n := 0
	keys := termOf(p)
	for i := 0; i < s.NumShards(); i++ {
		src, ver, term, ok := keys.resultKey(s.Shard(i))
		if !ok {
			return 0, false
		}
		if _, hit := resultcache.Peek(src, ver, term); hit {
			n++
		}
	}
	return n, true
}

// shardResultKey captures one shard's result-cache addressing before
// the evaluation runs, so the post-evaluation store can tell whether a
// write raced past the keyed version.
type shardResultKey struct {
	src  any
	ver  uint64
	term string
	ok   bool
}

// captureShardKey derives (and remembers) the addressing for one
// shard's local maxima.
func captureShardKey(keys resultTerm, shard *relation.Relation) shardResultKey {
	src, ver, term, ok := keys.resultKey(shard)
	return shardResultKey{src: src, ver: ver, term: term, ok: ok}
}

// serve reads the cached local maxima; a dead worker context refuses
// the hit so the fan-out resolves cancellation through its error path
// instead of masking it with a lookup. The returned slice is the
// caller's own.
func (k shardResultKey) serve(ctx context.Context) ([]int, bool) {
	if !k.ok {
		return nil, false
	}
	e, hit := resultcache.Get(k.src, k.ver, k.term)
	if !hit {
		return nil, false
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, false
	}
	return slices.Clone(e.Maxima), true
}

// store files freshly computed local maxima under the captured key,
// unless the shard moved past the keyed generation during evaluation.
func (k shardResultKey) store(p pref.Preference, shard *relation.Relation, ev evaluated) {
	if !k.ok || shard.Version() != k.ver {
		return
	}
	resultcache.Put(k.src, k.ver, k.term, buildResultEntry(p, shard, ev))
}
