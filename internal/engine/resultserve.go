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

// Result-cache serving: the finished BMO maxima of whole shards live in
// the memo of the generation they describe (relation.Memo), under the
// preference's canonical term key, so a pinned Snapshot view and the live
// relation at one version share them and they retire with the generation.
// Only a keyed bmoSharded call serves them (EvalIndicesCtxKeyed below,
// BMOShardedOnCtxKeyed, and BMOShardedOnFilteredCtxKeyed with keyed set),
// and only for a shard whose candidate slot is nil — every row of the
// shard. Everything else (a candidate subset, BMOIndices*, an unkeyed
// BMOShardedOnFilteredCtxKeyed) always evaluates, so one-shot WHERE
// statements store nothing and benchmarks and agreement baselines keep
// measuring real work. internal/engine/resultcache counts hits, misses
// and carries.

// resultTerm is the memo key of a keyed evaluation call's maxima: the
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

// keyable reports whether r's maxima under the term can be cached: not
// for an unkeyable term, nor for an ephemeral relation (identity fresh
// per query).
func (k resultTerm) keyable(r *relation.Relation) bool {
	return k.ok && r != nil && !r.Ephemeral()
}

// resultEntry is one cached BMO answer, immutable once stored: an Insert
// never edits it in place, it carries a successor entry into the
// successor generation's memo (Carry, resultmaint.go). maxima is shared
// across readers, which clone it before handing positions on.
type resultEntry struct {
	// pref is the preference term the maxima were computed under; Carry
	// checks newcomers against it.
	pref pref.Preference
	// maxima holds the positions of the maxima among every row, ascending.
	maxima []int
	// dims and coords are the optional chain-product fast path: when the
	// preference flattens to chain dimensions and no stored coordinate is
	// ±Inf, coords[k] holds maxima[k]'s maximize-all score vector and
	// Carry's dominance checks run on raw floats, a NaN coordinate
	// blocking dominance. Nil when unavailable; the interpreted pref.Less
	// path is always correct without them.
	dims   []pref.Scorer
	coords [][]float64
}

// bytes is the entry's size in its generation's memo.
func (e *resultEntry) bytes() int {
	n := 64 + 8*len(e.maxima)
	for _, c := range e.coords {
		n += 24 + 8*len(c)
	}
	return n
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
func buildResultEntry(p pref.Preference, r *relation.Relation, ev evaluated) *resultEntry {
	e := &resultEntry{pref: p, maxima: slices.Clone(ev.maxima)}
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
	e.dims, e.coords = dims, coords
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
		shard := s.Shard(i)
		if !keys.keyable(shard) {
			return 0, false
		}
		if _, hit := shard.Memo().Peek(keys.term); hit {
			n++
		}
	}
	return n, true
}

// shardResultKey captures one shard's result-cache addressing — the
// memo of the generation the evaluation is about to read — so the
// post-evaluation store can tell whether a write raced past it.
type shardResultKey struct {
	memo relation.Memo
	term string
	ok   bool
}

// captureShardKey derives (and remembers) the addressing for one
// shard's local maxima.
func captureShardKey(keys resultTerm, shard *relation.Relation) shardResultKey {
	if !keys.keyable(shard) {
		return shardResultKey{}
	}
	return shardResultKey{memo: shard.Memo(), term: keys.term, ok: true}
}

// serve reads the cached local maxima; a dead worker context refuses
// the hit so the fan-out resolves cancellation through its error path
// instead of masking it with a lookup. The returned slice is the
// caller's own.
func (k shardResultKey) serve(ctx context.Context) ([]int, bool) {
	if !k.ok {
		return nil, false
	}
	v, hit := k.memo.Get(k.term)
	if !hit {
		resultcache.NoteMiss()
		return nil, false
	}
	resultcache.NoteHit()
	if ctx != nil && ctx.Err() != nil {
		return nil, false
	}
	return slices.Clone(v.(*resultEntry).maxima), true
}

// store files freshly computed local maxima in the captured memo,
// unless the shard moved past its generation during evaluation.
func (k shardResultKey) store(p pref.Preference, shard *relation.Relation, ev evaluated) {
	if !k.ok || shard.Memo() != k.memo {
		return
	}
	e := buildResultEntry(p, shard, ev)
	k.memo.Put(k.term, e, e.bytes())
}
