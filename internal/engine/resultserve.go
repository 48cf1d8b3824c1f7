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
// The cache memoizes finished BMO maxima sets keyed by the live relation
// identity (Origin — so lookups through a pinned Snapshot view and
// through the live relation land on one key), the generation version,
// the preference's canonical term key and the candidate-set key ("*" for
// every row, "w:"+filter.PredKey for a WHERE-scoped set). Only a keyed
// bmoSharded call serves it (EvalIndicesCtxKeyed below,
// BMOShardedOnCtxKeyed, and BMOShardedOnFilteredCtxKeyed with keyed set)
// — everything else (BMOIndices*, an unkeyed BMOShardedOnFilteredCtxKeyed)
// always evaluates, so benchmarks and agreement baselines keep measuring
// real work.

// stmtKeys are the canonical renderings one keyed evaluation call
// addresses its caches with: the preference's compile-cache term and the
// result-cache term composed from it and the candidate-set key. They are
// functions of the statement alone, so a call renders them once and every
// shard reuses them. resultOK=false means the query must bypass the result
// cache: a preference without a faithful canonical key, or a WHERE tree
// containing foreign Pred nodes.
type stmtKeys struct {
	keyedTerm
	result   string
	resultOK bool
}

// keysOf renders the keys of σ[P](where(R)).
func keysOf(p pref.Preference, where filter.Pred) stmtKeys {
	k := stmtKeys{keyedTerm: keyTerm(p)}
	if !k.keyed {
		return k
	}
	candTerm := "*"
	if where != nil {
		pk, ok := filter.PredKey(where)
		if !ok {
			return k
		}
		candTerm = "w:" + pk
	}
	k.result, k.resultOK = resultcache.TermKey(k.term, candTerm), true
	return k
}

// resultKey derives the result-cache addressing over one relation: the
// identity the entry files under, the generation version to read, and the
// composed term. ok=false for an unkeyable statement and for ephemeral
// relations (identity fresh per query).
func (k stmtKeys) resultKey(r *relation.Relation) (src any, version uint64, term string, ok bool) {
	if !k.resultOK || r == nil || r.Ephemeral() {
		return nil, 0, "", false
	}
	return r.Origin(), r.Version(), k.result, true
}

// buildResultEntry packages a finished evaluation for the cache,
// attaching the chain-product coordinate fast path when the preference
// flattens to chain dimensions over numeric columns and no maximum scores
// ±Inf on any of them (±Inf coordinates can collapse distinct value
// classes — the pref.InfCollapse hazard — and a TIME dimension ties
// unequal instants within a second, so maintenance falls back to
// interpreted dominance for them). The coordinates come out of the score
// vectors of the bound form that just evaluated; only an interpreted
// evaluation re-derives them through ScoreOf.
func buildResultEntry(p pref.Preference, where filter.Pred, r *relation.Relation, ev evaluated) *resultcache.Entry {
	e := &resultcache.Entry{Pref: p, Where: where, Maxima: slices.Clone(ev.maxima)}
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
// strict policy. idx and where are what the result key encodes; a
// candidate subset under a nil where evaluates without the cache.
func EvalIndicesCtxKeyed(ctx context.Context, p pref.Preference, r *relation.Relation, alg Algorithm, idx []int, where filter.Pred) ([]int, error) {
	s := relation.OneShard(r)
	out, _, err := bmoSharded(ctx, p, s, alg, ShardSets{idx}, where, true, nil, Robust{})
	if err != nil {
		return nil, err
	}
	return out.GlobalIDs(s), nil
}

// ResultCacheState reports the serving status EXPLAIN prints for a
// flat BMO step: "hit" (a maxima set for the current generation is
// cached), "cold" (keyable but absent) or "bypass" (the query cannot be
// keyed, or the cache is disabled) — ResultCachedShards over r as its
// one shard.
func ResultCacheState(p pref.Preference, r *relation.Relation, where filter.Pred) string {
	switch n, ok := ResultCachedShards(p, relation.OneShard(r), where); {
	case !ok:
		return "bypass"
	case n == 1:
		return "hit"
	}
	return "cold"
}

// ResultCachedShards counts the shards of s whose local maxima for
// (p, where) are cached at their current versions, for EXPLAIN's
// sharded status line. ok=false when the query cannot be keyed at all.
func ResultCachedShards(p pref.Preference, s *relation.Sharded, where filter.Pred) (int, bool) {
	if !resultcache.Enabled() {
		return 0, false
	}
	n := 0
	keys := keysOf(p, where)
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
func captureShardKey(keys stmtKeys, shard *relation.Relation) shardResultKey {
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
func (k shardResultKey) store(p pref.Preference, shard *relation.Relation, where filter.Pred, ev evaluated) {
	if !k.ok || shard.Version() != k.ver {
		return
	}
	resultcache.Put(k.src, k.ver, k.term, buildResultEntry(p, where, shard, ev))
}
