package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

func cacheTestRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New("C", relation.MustSchema(
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
		relation.Column{Name: "cat", Type: relation.String},
	))
	for i := 0; i < n; i++ {
		rel.MustInsert(relation.Row{
			float64(rng.Intn(6)), float64(rng.Intn(6)),
			string(rune('a' + rng.Intn(3))),
		})
	}
	return rel
}

// TestCompileCacheHitAndInvalidation pins the cache lifecycle: a repeated
// query hits, an Insert or SortBy strands the entry, and a re-parsed term
// (different pointer, same rendering) still hits.
func TestCompileCacheHitAndInvalidation(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(3))
	rel := cacheTestRelation(rng, 400)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))

	BMOIndices(p, rel, BNL)
	if h, m := CompileCacheStats(); h != 0 || m != 1 {
		t.Fatalf("cold query: hits=%d misses=%d", h, m)
	}
	if !CompileCached(p, rel) {
		t.Fatal("bound form must be cached after the first query")
	}
	BMOIndices(p, rel, BNL)
	if h, _ := CompileCacheStats(); h != 1 {
		t.Fatalf("repeat query must hit, hits=%d", h)
	}
	// Same term rebuilt fresh (a re-parsed query): pointer differs, the
	// canonical rendering does not.
	q := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	BMOIndices(q, rel, BNL)
	if h, _ := CompileCacheStats(); h != 2 {
		t.Fatalf("re-parsed term must hit, hits=%d", h)
	}

	rel.MustInsert(relation.Row{0.0, 0.0, "z"})
	if CompileCached(p, rel) {
		t.Fatal("Insert must strand the cached bound form")
	}
	BMOIndices(p, rel, BNL)
	if _, m := CompileCacheStats(); m != 2 {
		t.Fatalf("post-mutation query must miss, misses=%d", m)
	}
}

// TestStaleCacheNeverChangesBMO is the cache-soundness property: across a
// random chain of queries and mutations (Insert, SortBy), the cached
// compiled path must always return the same BMO set as a forced fresh
// interpreted evaluation — i.e. stale-cache reuse can never surface.
func TestStaleCacheNeverChangesBMO(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	terms := []pref.Preference{
		pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2")),
		pref.Prioritized(pref.POS("cat", "a"), pref.LOWEST("d1")),
		pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.NEG("cat", "b")),
	}
	algs := []Algorithm{Naive, BNL, SFS, Decomposition, Auto}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := cacheTestRelation(rng, 20+rng.Intn(60))
		for step := 0; step < 6; step++ {
			p := terms[rng.Intn(len(terms))]
			alg := algs[rng.Intn(len(algs))]
			got := BMOIndices(p, rel, alg)
			want := BMOIndicesMode(p, rel, alg, EvalInterpreted)
			if !sameIndices(got, want) {
				t.Fatalf("seed %d step %d: cached %s/%s = %v, interpreted = %v",
					seed, step, p, alg, got, want)
			}
			// Mutate before the next round so any stale reuse would
			// evaluate over outdated vectors.
			switch rng.Intn(3) {
			case 0:
				rel.MustInsert(relation.Row{
					float64(rng.Intn(6)), float64(rng.Intn(6)),
					string(rune('a' + rng.Intn(3))),
				})
			case 1:
				rel.SortBy(func(a, b pref.Tuple) bool {
					av, _ := a.Get("d1")
					bv, _ := b.Get("d1")
					c, _ := pref.CompareValues(av, bv)
					return c < 0
				})
			}
		}
	}
}

// TestCachedFormMatchesFreshCompile cross-checks a cache-served bound form
// against an independently compiled one, pair for pair.
func TestCachedFormMatchesFreshCompile(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(9))
	rel := cacheTestRelation(rng, 120)
	p := pref.Prioritized(pref.NEG("cat", "c"), pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2")))

	cached := compileFor(p, rel, EvalAuto)
	again := compileFor(p, rel, EvalAuto)
	if cached == nil || cached != again {
		t.Fatal("second compileFor must serve the cached pointer")
	}
	fresh, ok := pref.Compile(p, rel)
	if !ok {
		t.Fatal("term must compile")
	}
	for i := 0; i < rel.Len(); i++ {
		for j := 0; j < rel.Len(); j++ {
			if cached.Less(i, j) != fresh.Less(i, j) {
				t.Fatalf("cached and fresh bound forms disagree on (%d, %d)", i, j)
			}
		}
	}
}

// TestPlanReportsCacheStatus pins Plan.CacheHit and its Explain rendering.
func TestPlanReportsCacheStatus(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(11))
	rel := cacheTestRelation(rng, 600)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	if pl := PlanWithInput(p, rel, rel.Len(), Env{}); pl.CacheHit {
		t.Fatal("cold plan must not report a cache hit")
	}
	BMOIndices(p, rel, Auto)
	pl := PlanWithInput(p, rel, rel.Len(), Env{})
	if !pl.CacheHit {
		t.Fatal("plan after execution must report the cache hit")
	}
	if want := "cache=hit"; !strings.Contains(pl.Explain(), want) {
		t.Fatalf("Explain must render %q:\n%s", want, pl.Explain())
	}
}

// TestNegativeCacheEntryIsNotAHit pins the probe semantics for terms that
// are structurally compilable but fail to bind (a discrete layer past the
// ordinal-coding cap): the failure is cached — the next query skips the
// doomed bind attempt — but CompileCached must not claim a bound form
// exists, since execution runs interpreted.
func TestNegativeCacheEntryIsNotAHit(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rel := relation.New("N", relation.MustSchema(relation.Column{Name: "s", Type: relation.String}))
	for i := 0; i < 600; i++ { // beyond the 512-value ordinal cap
		rel.MustInsert(relation.Row{fmt.Sprintf("v%d", i)})
	}
	p, err := pref.EXPLICIT("s", []pref.Edge{{Worse: "v1", Better: "v2"}})
	if err != nil {
		t.Fatal(err)
	}
	if !pref.Compilable(p) {
		t.Fatal("EXPLICIT must be structurally compilable")
	}
	if c := compileFor(p, rel, EvalAuto); c != nil {
		t.Fatal("bind must fail beyond the ordinal-coding cap")
	}
	if CompileCached(p, rel) {
		t.Fatal("a cached bind failure must not report as a reusable bound form")
	}
	if compileFor(p, rel, EvalAuto) != nil {
		t.Fatal("second compile must also fail")
	}
	if h, m := CompileCacheStats(); h != 1 || m != 1 {
		t.Fatalf("negative outcome must still be cache-served: hits=%d misses=%d", h, m)
	}
}

// TestScoreTermsBypassCache guards against rendering-identity collisions:
// SCORE terms render only a function label, so two distinct scoring
// functions can share a String(). They must bypass the cache and bind
// fresh — a cached reuse would evaluate the second query with the first
// query's score vectors.
func TestScoreTermsBypassCache(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rel := relation.New("S", relation.MustSchema(relation.Column{Name: "d", Type: relation.Float}))
	for i := 0; i < 8; i++ {
		rel.MustInsert(relation.Row{float64(i)})
	}
	up := pref.SCORE("d", "f", func(v pref.Value) float64 {
		n, _ := pref.Numeric(v)
		return n
	})
	down := pref.SCORE("d", "f", func(v pref.Value) float64 {
		n, _ := pref.Numeric(v)
		return -n
	})
	if up.String() != down.String() {
		t.Fatal("test premise: both terms must render identically")
	}
	if pref.Cacheable(up) {
		t.Fatal("SCORE must not be cacheable")
	}
	best := BMOIndices(up, rel, BNL)
	worst := BMOIndices(down, rel, BNL)
	if len(best) != 1 || best[0] != 7 {
		t.Fatalf("ascending score: best = %v, want [7]", best)
	}
	if len(worst) != 1 || worst[0] != 0 {
		t.Fatalf("descending score after identical-rendering query: best = %v, want [0] (stale bound form reused?)", worst)
	}
}

// TestSetRenderingCollisionDoesNotShareBoundForms guards the cache key
// derivation: POS(c, {"red, blue"}) and POS(c, {"red", "blue"}) render
// identically through String() (set values are unescaped), but their
// semantics differ — the cache must key them apart (pref.CacheKey uses
// length-prefixed ValueKey encodings, not the human rendering).
func TestSetRenderingCollisionDoesNotShareBoundForms(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rel := relation.New("P", relation.MustSchema(relation.Column{Name: "c", Type: relation.String}))
	rel.MustInsert(relation.Row{"red"}, relation.Row{"blue"}, relation.Row{"red, blue"})
	p1 := pref.POS("c", "red, blue")
	p2 := pref.POS("c", "red", "blue")
	if p1.String() != p2.String() {
		t.Fatal("test premise: both terms must render identically via String()")
	}
	k1, ok1 := pref.CacheKey(p1)
	k2, ok2 := pref.CacheKey(p2)
	if !ok1 || !ok2 || k1 == k2 {
		t.Fatalf("cache keys must be faithful and distinct: %q vs %q", k1, k2)
	}
	got1 := BMOIndices(p1, rel, BNL)
	got2 := BMOIndices(p2, rel, BNL)
	if !sameIndices(got1, []int{2}) {
		t.Fatalf("POS(c, {\"red, blue\"}) best = %v, want [2]", got1)
	}
	if !sameIndices(got2, []int{0, 1}) {
		t.Fatalf("POS(c, {red, blue}) after identical-rendering query = %v, want [0 1] (stale bound form reused?)", got2)
	}

	// A weighted-sum rank(F) keys by its exact weights — not their
	// rendering, which rounds — and its parts' keys; an opaque F or a
	// SCORE part leaves it keyless.
	rankW := func(ws []float64, parts ...pref.Scorer) pref.Preference {
		r, err := pref.RankWeighted(ws, parts...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	wsum := func(ws ...float64) pref.Preference { return rankW(ws, pref.LOWEST("a"), pref.HIGHEST("b")) }
	tenth := 0.1 // a variable: float64 arithmetic rounds, constant arithmetic does not
	key := func(p pref.Preference) string {
		k, ok := pref.CacheKey(p)
		if !ok {
			t.Fatalf("%s must have a faithful key", p)
		}
		return k
	}
	for _, c := range []struct {
		name string
		a, b pref.Preference
	}{
		{"0.1+0.2 vs 0.3", wsum(tenth+2*tenth, 1), wsum(0.3, 1)},
		{"-0 vs 0", wsum(math.Copysign(0, -1), 1), wsum(0, 1)},
		{"weights swapped", wsum(1, 2), wsum(2, 1)},
		{"parts differ", wsum(1, 1), rankW([]float64{1, 1}, pref.LOWEST("a"), pref.LOWEST("b"))},
	} {
		if key(c.a) == key(c.b) {
			t.Errorf("%s: distinct weighted sums share the key %q", c.name, key(c.a))
		}
	}
	if key(wsum(0.5, 2)) != key(wsum(0.5, 2)) {
		t.Error("equal weights and parts must give equal keys")
	}
	score := pref.SCORE("a", "f", func(v pref.Value) float64 { n, _ := pref.Numeric(v); return n })
	for name, p := range map[string]pref.Preference{
		"SCORE part": rankW([]float64{1, 1}, score, pref.HIGHEST("b")),
		"opaque F":   pref.Rank("F", pref.WeightedSum(1, 1), pref.LOWEST("a"), pref.HIGHEST("b")),
	} {
		if pref.Cacheable(p) {
			t.Errorf("%s: rank(F) must stay keyless", name)
		}
	}
}

// TestEphemeralRelationsBypassCache: query intermediates (Pick results)
// have per-query identity; caching against them could never hit and would
// pin their rows, so the cache skips them entirely.
func TestEphemeralRelationsBypassCache(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(13))
	rel := cacheTestRelation(rng, 50)
	sub := rel.Pick([]int{0, 1, 2, 3, 4})
	if !sub.Ephemeral() || rel.Ephemeral() {
		t.Fatal("Pick results are ephemeral, base relations are not")
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	if compileFor(p, sub, EvalAuto) == nil {
		t.Fatal("ephemeral relations still compile — just uncached")
	}
	if CompileCached(p, sub) {
		t.Fatal("ephemeral relations must not populate the cache")
	}
	if h, m := CompileCacheStats(); h != 0 || m != 0 {
		t.Fatalf("ephemeral compile must not touch the counters: hits=%d misses=%d", h, m)
	}
}

// TestCacheHitKeepsChainProductVectors: ScoreVec resolves sub-terms by
// pointer identity, so a cache-served bound form must be interrogated
// through its OWN term (Compiled.Pref) — the caller's structurally
// identical re-built tree has different pointers and would miss, silently
// dropping the blocked filter's exact chain verdicts (chainExact) and the
// result cache's coordinate carry on exactly the repeated queries the
// cache accelerates.
func TestCacheHitKeepsChainProductVectors(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(17))
	rel := cacheTestRelation(rng, 50)
	first := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	compileFor(first, rel, EvalAuto)

	rebuilt := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	c := compileFor(rebuilt, rel, EvalAuto)
	if h, _ := CompileCacheStats(); h != 1 {
		t.Fatal("rebuilt term must be cache-served")
	}
	dims, ok := chainDims(c.Pref())
	if !ok {
		t.Fatal("chain product must be detected on the compiled form's term")
	}
	for _, dim := range dims {
		if c.ScoreVec(dim) == nil {
			t.Fatalf("score vector missing for %s on a cache-hit form", dim)
		}
	}
}
