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
	"math"
	"slices"
	"sync/atomic"

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
// performs one scan maintaining a size-k min-heap: O(n log k). It is
// TopKOnCtx under an uncancellable context, which cannot fail.
func TopK(p pref.Scorer, r *relation.Relation, k int) []Result {
	out, _ := TopKOnCtx(context.Background(), p, r, k, nil)
	return out
}

// The score cache: a keyed Scorer term's score vector over a whole
// relation is kept in the memo of the generation it scored
// (relation.Memo), under "rank:" plus the term's pref.CacheKey, so
// repeated TOP-k queries over an unchanged catalog relation are
// bind-free — through a Snapshot view or the live relation alike — and
// the vectors retire with their generation: an Insert's successor, a
// dropped table or a displaced shard frees them with no sweep. A
// weighted-sum rank(F) keys by its weights and parts; SCORE leaves and
// rank(F) terms with an opaque combining function have no faithful cache
// key, so they bypass the cache and bind per call (one columnar pass, not
// a tuple walk per feature).
var scoreHits, scoreMisses atomic.Uint64

// scoreVecKey returns the memo key of a Scorer's vector over r; ok=false
// when the term is keyless or the source an ephemeral intermediate.
func scoreVecKey(p pref.Scorer, r *relation.Relation) (string, bool) {
	if r.Ephemeral() {
		return "", false
	}
	term, keyed := pref.CacheKey(p)
	if !keyed {
		return "", false
	}
	return "rank:" + term, true
}

// compiledScoreVec materializes the term's score vector over a source —
// the whole relation, or a gathered candidate subset — or nil when the
// term is outside the compilable fragment.
func compiledScoreVec(p pref.Scorer, src pref.Source) []float64 {
	c, ok := pref.Compile(p, src)
	if !ok {
		return nil
	}
	return c.ScoreVec(p)
}

// cachedScoreVec is compiledScoreVec through the score cache; negative
// outcomes cache as nil.
func cachedScoreVec(p pref.Scorer, r *relation.Relation) []float64 {
	key, ok := scoreVecKey(p, r)
	if !ok {
		return compiledScoreVec(p, r)
	}
	m := r.Memo()
	if vec, hit := m.Get(key); hit {
		scoreHits.Add(1)
		return vec.([]float64)
	}
	scoreMisses.Add(1)
	vec := compiledScoreVec(p, r)
	return m.Put(key, vec, 24+8*len(vec)).([]float64)
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
// ScoreOf. A small candidate set only peeks at the cache (its gathered
// bind is neither a hit nor a miss); the whole-relation lookup counts.
// The gathered vector outlives this call inside the returned closure, so
// the gather does not Borrow: it is ordinary GC-owned memory.
func scoreFn(p pref.Scorer, r *relation.Relation, idx []int) func(ord, row int) float64 {
	whole := func(vec []float64) func(ord, row int) float64 {
		return func(_, row int) float64 { return vec[row] }
	}
	if idx != nil && relation.GatherWorthwhile(len(idx), r.Len()) {
		if key, ok := scoreVecKey(p, r); ok {
			if v, hit := r.Memo().Peek(key); hit && v.([]float64) != nil {
				return whole(v.([]float64))
			}
		}
		if vec := compiledScoreVec(p, r.Gather(idx)); vec != nil {
			return func(ord, _ int) float64 { return vec[ord] }
		}
	} else if vec := cachedScoreVec(p, r); vec != nil {
		return whole(vec)
	}
	return func(_, row int) float64 { return p.ScoreOf(r.Tuple(row)) }
}

// ScoreCacheStats returns the cumulative score-vector cache hit and miss
// counts.
func ScoreCacheStats() (hits, misses uint64) {
	return scoreHits.Load(), scoreMisses.Load()
}

// ResetScoreCache zeroes the score-vector cache's counters; the vectors
// live on their generations, so a test that needs a cold bind builds a
// fresh relation. The benchmark harness still calls it.
func ResetScoreCache() {
	scoreHits.Store(0)
	scoreMisses.Store(0)
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

// ResetPermCache does nothing: ThresholdTopK sorts its access lists per
// call. The benchmark harness still calls it.
func ResetPermCache() {}

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
	parts, combine := p.Parts(), p.Combine
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
	// features), with a per-row ScoreOf walk as the cold fallback; each
	// call sorts its access lists.
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
		lists[f] = sortScorePerm(scores[f])
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
