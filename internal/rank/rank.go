// Package rank implements the ranked query model of §6.2: numerical
// accumulation rank(F) evaluated under "k-best" semantics. Since rank(F)
// usually constructs chains, a BMO query would return a single best object;
// multi-feature engines therefore retrieve the k best objects, including
// non-maximal ones. Two physical strategies are provided: a heap-based
// full scan and a threshold algorithm over per-feature sorted lists in the
// spirit of Quick-Combine [GBK00], which stops sorted access once the
// threshold proves no unseen object can enter the top k.
package rank

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/boundcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Result is one ranked answer: a row index in the source relation with its
// combined score.
type Result struct {
	Row   int
	Score float64
}

// TopK returns the k best rows of R under the Scorer p (highest combined
// score first; ties broken by ascending row index for determinism). It
// performs one scan maintaining a size-k min-heap: O(n log k).
func TopK(p pref.Scorer, r *relation.Relation, k int) []Result {
	return TopKOn(p, r, k, nil)
}

// TopKOn is TopK over the candidate row positions of R (idx == nil means
// every row): TopKOnCtx under an uncancellable context, which cannot
// fail.
func TopKOn(p pref.Scorer, r *relation.Relation, k int, idx []int) []Result {
	out, _ := TopKOnCtx(context.Background(), p, r, k, idx)
	return out
}

// scoreCacheCap bounds the number of cached score vectors.
const scoreCacheCap = 64

// scoreCache holds materialized score vectors of keyed Scorer terms per
// (relation, version, term) — the ranked layer's instance of the shared
// bound-form cache, so repeated TOP-k queries over an unchanged catalog
// relation are bind-free and engine.EvictRelation releases the vectors
// of a dropped relation. rank(F) terms carry opaque combining functions
// and have no faithful cache key; they bypass the cache and bind per
// call (one columnar pass, not a tuple walk per feature) — unless the
// caller gives them a session identity through Register.
var scoreCache = boundcache.New[[]float64](scoreCacheCap)

// termKeyOf returns the faithful cache key of a Scorer term: the
// canonical pref.CacheKey encoding, or — for terms carrying opaque Go
// functions — the session token of a registered Handle (see Register).
func termKeyOf(p pref.Scorer) (string, bool) {
	if h, ok := p.(*Handle); ok {
		return h.token, true
	}
	return pref.CacheKey(p)
}

// rankKey builds the bound-form cache key of one derived artifact kind
// ("rank" score vectors, "rankperm" sorted-access permutations) of a
// Scorer over r; ok=false when the term is keyless or the source
// uncacheable (ephemeral intermediates, like every other bound-form
// cache).
func rankKey(p pref.Scorer, r *relation.Relation, kind string) (boundcache.Key, bool) {
	if r.Ephemeral() {
		return boundcache.Key{}, false
	}
	term, keyed := termKeyOf(p)
	if !keyed {
		return boundcache.Key{}, false
	}
	return boundcache.Key{Src: r, Version: r.Version(), Term: kind + ":" + term}, true
}

// scoreVecKey returns the cache key of a Scorer's vector over r.
func scoreVecKey(p pref.Scorer, r *relation.Relation) (boundcache.Key, bool) {
	return rankKey(p, r, "rank")
}

// compiledScoreVec materializes the term's score vector over a source —
// the whole relation, or a gathered candidate subset — or nil when the
// term is outside the compilable fragment. Registered handles compile
// their wrapped term.
func compiledScoreVec(p pref.Scorer, src pref.Source) []float64 {
	p = unwrap(p)
	if !pref.Compilable(p) {
		return nil
	}
	c, ok := pref.Compile(p, src)
	if !ok {
		return nil
	}
	return c.ScoreVec(p)
}

// cachedScoreVec is compiledScoreVec through scoreCache; negative
// outcomes cache as nil.
func cachedScoreVec(p pref.Scorer, r *relation.Relation) []float64 {
	key, ok := scoreVecKey(p, r)
	if !ok {
		return compiledScoreVec(p, r)
	}
	if vec, hit := scoreCache.Get(key); hit {
		return vec
	}
	vec := compiledScoreVec(p, r)
	scoreCache.Put(key, vec)
	return vec
}

// scoreFn returns the scorer of a k-best scan over the candidates idx of
// R (nil means every row), called with the candidate's ordinal in idx
// and its row position. Compilable terms score off a compiled vector at
// any selectivity, under the one subset rule every bind layer shares: a
// cached whole-relation vector is free and always used; a cold bind over
// a small candidate set (relation.GatherWorthwhile) gathers just those
// rows — an ordinal-addressed vector, dropped with the query — and
// anything larger binds the whole relation through the score cache.
// Only terms outside the compilable fragment score per row through
// ScoreOf. The gathered vector outlives this call inside the returned
// closure, so the gather does not Borrow: it is ordinary GC-owned memory.
func scoreFn(p pref.Scorer, r *relation.Relation, idx []int) func(ord, row int) float64 {
	if key, ok := scoreVecKey(p, r); ok {
		if vec, hit := scoreCache.Peek(key); hit && vec != nil {
			return func(_, row int) float64 { return vec[row] }
		}
	}
	if idx != nil && relation.GatherWorthwhile(len(idx), r.Len()) {
		if vec := compiledScoreVec(p, r.Gather(idx)); vec != nil {
			return func(ord, _ int) float64 { return vec[ord] }
		}
	} else if vec := cachedScoreVec(p, r); vec != nil {
		return func(_, row int) float64 { return vec[row] }
	}
	return func(_, row int) float64 { return p.ScoreOf(r.Tuple(row)) }
}

// ScoreCacheStats returns the cumulative score-vector cache hit and miss
// counts.
func ScoreCacheStats() (hits, misses uint64) {
	return scoreCache.Stats()
}

// ResetScoreCache empties the score-vector cache and zeroes its counters;
// tests and benchmarks use it to measure cold binds.
func ResetScoreCache() {
	scoreCache.Reset()
}

// permCacheCap bounds the number of cached sorted-access permutations.
const permCacheCap = 64

// permCache holds the descending-score visit permutations the threshold
// algorithm sorts its per-feature access lists by, cached alongside each
// score vector per (relation, version, term): the sort is the dominant
// per-query cost once the vectors themselves come from the cache, so a
// repeated ThresholdTopK over an unchanged relation is sort-free. Keys
// share the score cache's term encoding with a distinct kind prefix, so
// engine.EvictRelation's registry sweep releases permutations too, and
// any row mutation strands them via the version.
var permCache = boundcache.New[[]int](permCacheCap)

// cachedSortedPerm returns the sorted-access permutation of a feature's
// score vector: row positions ordered by descending score, ties by
// ascending position. Served from permCache for keyed terms over
// cacheable relations; sorted fresh otherwise.
func cachedSortedPerm(p pref.Scorer, r *relation.Relation, scores []float64) []int {
	key, ok := rankKey(p, r, "rankperm")
	if ok {
		if perm, hit := permCache.Get(key); hit && perm != nil {
			return perm
		}
	}
	perm := sortScorePerm(scores)
	if ok {
		permCache.Put(key, perm)
	}
	return perm
}

// sortScorePerm builds the descending-score permutation; the stable sort
// pins ascending-position tie order, the determinism ThresholdTopK's
// access statistics rely on.
func sortScorePerm(scores []float64) []int {
	perm := make([]int, len(scores))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return 0
	})
	return perm
}

// PermCacheStats returns the cumulative sorted-permutation cache hit and
// miss counts.
func PermCacheStats() (hits, misses uint64) {
	return permCache.Stats()
}

// ResetPermCache empties the sorted-permutation cache and zeroes its
// counters.
func ResetPermCache() {
	permCache.Reset()
}

// Handle gives a Scorer term a session-scoped identity the bound-form
// caches can key by. rank(F) terms (and raw SCORE leaves) carry opaque
// Go functions, so they have no canonical cache key and would re-bind
// their score vectors and sorted lists on every execution; registering
// the term once hands back a token-carrying wrapper that scores exactly
// like the original but hits the caches on every repeat. The token is
// valid for the process lifetime; registering the same term twice
// yields two independent identities.
type Handle struct {
	pref.Scorer
	token string
}

// handleSeq numbers session handles.
var handleSeq atomic.Uint64

// Register wraps a Scorer term in a session-scoped Handle. The caller
// must not mutate the term's behaviour afterwards (the token asserts
// that repeated evaluations are semantically identical — that is what
// makes it a faithful cache key).
func Register(p pref.Scorer) *Handle {
	return &Handle{Scorer: p, token: fmt.Sprintf("handle#%d", handleSeq.Add(1))}
}

// Token returns the session token; diagnostics only.
func (h *Handle) Token() string { return h.token }

// unwrap returns the underlying term of a registered handle (handles do
// not nest: Register always wraps the term it is given).
func unwrap(p pref.Scorer) pref.Scorer {
	if h, ok := p.(*Handle); ok {
		return h.Scorer
	}
	return p
}

// TopK returns the k best rows under the registered term, serving the
// combined score vector from the cache on every repeat.
func (h *Handle) TopK(r *relation.Relation, k int) []Result {
	return TopKOn(h, r, k, nil)
}

// TopKOn is TopK over a candidate subset (idx == nil means every row).
func (h *Handle) TopKOn(r *relation.Relation, k int, idx []int) []Result {
	return TopKOn(h, r, k, idx)
}

// ThresholdTopK runs the threshold algorithm under the registered term
// when it wraps a rank(F) accumulation: every feature's score vector and
// sorted-access permutation is cached under the handle's token (features
// with their own canonical key keep it), so repeat queries are bind- and
// sort-free. A handle wrapping a plain Scorer has no per-feature lists
// and degrades to one cached heap scan with trivial access statistics.
func (h *Handle) ThresholdTopK(r *relation.Relation, k int) ([]Result, Stats) {
	rp, ok := unwrap(h).(*pref.RankPref)
	if !ok {
		out := h.TopK(r, k)
		return out, Stats{SortedAccesses: r.Len(), Scanned: r.Len()}
	}
	parts := rp.Parts()
	feats := make([]pref.Scorer, len(parts))
	for f, part := range parts {
		if _, keyed := pref.CacheKey(part); keyed {
			feats[f] = part
		} else {
			// Derive a per-feature identity from the handle token, so
			// opaque features amortize under it.
			feats[f] = &Handle{Scorer: part, token: fmt.Sprintf("%s/f%d", h.token, f)}
		}
	}
	return thresholdTopK(feats, rp.Combine, r, k)
}

// worse reports a ranks strictly below b (lower score, or equal score and
// higher row index).
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Row > b.Row
}

// resultHeap is a min-heap on (score, -row).
type resultHeap struct{ items []Result }

func (h *resultHeap) Len() int           { return len(h.items) }
func (h *resultHeap) Less(i, j int) bool { return worse(h.items[i], h.items[j]) }
func (h *resultHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *resultHeap) Push(x any)         { h.items = append(h.items, x.(Result)) }
func (h *resultHeap) Pop() (out any) {
	n := len(h.items)
	out = h.items[n-1]
	h.items = h.items[:n-1]
	return
}

// Stats reports the access behaviour of a threshold-algorithm run.
type Stats struct {
	// SortedAccesses counts rows popped from the per-feature sorted lists.
	SortedAccesses int
	// RandomAccesses counts score lookups for features other than the one
	// accessed in sorted order.
	RandomAccesses int
	// Scanned counts distinct rows whose combined score was computed.
	Scanned int
}

// ThresholdTopK computes the k best rows under rank(F) using the threshold
// algorithm over per-feature score lists sorted in descending order. F must
// be monotone in each argument (the usual requirement of [GBK00]/Fagin):
// then once the k-th best combined score seen so far meets or exceeds
// F(next scores at the list heads), no unseen row can qualify and the scan
// stops. Returns the same ranking as TopK plus access statistics.
func ThresholdTopK(p *pref.RankPref, r *relation.Relation, k int) ([]Result, Stats) {
	parts := p.Parts()
	feats := make([]pref.Scorer, len(parts))
	copy(feats, parts)
	return thresholdTopK(feats, p.Combine, r, k)
}

// thresholdTopK is the threshold-algorithm core shared by ThresholdTopK
// and registered handles: per-feature scorers plus the monotone
// combining function.
func thresholdTopK(parts []pref.Scorer, combine func([]float64) float64, r *relation.Relation, k int) ([]Result, Stats) {
	var stats Stats
	if k <= 0 || r.Len() == 0 {
		return nil, stats
	}
	m := len(parts)
	n := r.Len()
	// Materialize per-feature scores and sorted access lists: each
	// feature's vector is a flat column served from the score cache when
	// the part has a faithful key (SCORE dimensions ordinal-coded: the
	// scoring function runs once per distinct value, the win for string
	// features), and the sorted access lists come from the permutation
	// cache — repeated threshold queries over an unchanged relation are
	// sort-free — with a per-row ScoreOf walk as the cold fallback.
	scores := make([][]float64, m)
	lists := make([][]int, m)
	for f := 0; f < m; f++ {
		// Shared with the cache / compiled form; read-only from here on.
		scores[f] = cachedScoreVec(parts[f], r)
		if scores[f] == nil {
			fs := make([]float64, n)
			for i := 0; i < n; i++ {
				fs[i] = parts[f].ScoreOf(r.Tuple(i))
			}
			scores[f] = fs
		}
		lists[f] = cachedSortedPerm(parts[f], r, scores[f])
	}
	seen := make(map[int]struct{}, 2*k)
	h := &resultHeap{}
	heap.Init(h)
	depth := 0
	scratch := make([]float64, m) // combine() does not retain its argument
	for depth < n {
		// One round of sorted access on every list at the current depth.
		for f := 0; f < m; f++ {
			row := lists[f][depth]
			stats.SortedAccesses++
			if _, dup := seen[row]; dup {
				continue
			}
			seen[row] = struct{}{}
			for g := 0; g < m; g++ {
				scratch[g] = scores[g][row]
				if g != f {
					stats.RandomAccesses++
				}
			}
			stats.Scanned++
			res := Result{row, combine(scratch)}
			if h.Len() < k {
				heap.Push(h, res)
			} else if worse(h.items[0], res) {
				h.items[0] = res
				heap.Fix(h, 0)
			}
		}
		depth++
		// Threshold: best combined score any unseen row could reach.
		for f := 0; f < m; f++ {
			if depth < n {
				scratch[f] = scores[f][lists[f][depth]]
			} else {
				scratch[f] = math.Inf(-1)
			}
		}
		if h.Len() == k && !worse(h.items[0], Result{Row: -1, Score: combine(scratch)}) {
			break
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, stats
}
