package engine

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"weak"

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

// TestStaleCacheNeverChangesBMO is the cache-soundness property of what a
// compiled statement reads across statements — the relation's cached
// column images, equality codes and the planner's statistics: across a
// random chain of queries and mutations (Insert, SortBy), the compiled
// path must always return the same BMO set as a forced fresh interpreted
// evaluation, so stale reuse can never surface.
func TestStaleCacheNeverChangesBMO(t *testing.T) {
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

// TestPlanReportsBindScope pins Plan.Bind and its Explain rendering: an
// unfiltered input binds the whole relation, a small candidate set
// gathers.
func TestPlanReportsBindScope(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := cacheTestRelation(rng, 600)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	for _, c := range []struct {
		n    int
		want BindScope
		line string
	}{
		{rel.Len(), BindFull, "eval=compiled bind=full"},
		{rel.Len() / 8, BindGathered, "eval=compiled bind=gathered"},
	} {
		pl := PlanWithInput(p, rel, c.n, Env{})
		if pl.Bind != c.want {
			t.Fatalf("n=%d: plan binds %s, want %s", c.n, pl.Bind, c.want)
		}
		if !strings.Contains(pl.Explain(), c.line) {
			t.Fatalf("n=%d: Explain must render %q:\n%s", c.n, c.line, pl.Explain())
		}
	}
}

// TestScoreTermsBypassCache guards against rendering-identity collisions:
// SCORE terms render only a function label, so two distinct scoring
// functions can share a String(). They must bypass the caches keyed on
// pref.CacheKey (the result cache, rank's score vectors) and bind fresh —
// a keyed reuse would answer the second query with the first query's
// scores.
func TestScoreTermsBypassCache(t *testing.T) {
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
	if _, ok := pref.CacheKey(up); ok {
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
// semantics differ — the caches keyed on pref.CacheKey (the result cache,
// rank's score vectors) must key them apart (it uses length-prefixed
// ValueKey encodings, not the human rendering).
func TestSetRenderingCollisionDoesNotShareBoundForms(t *testing.T) {
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
		if _, ok := pref.CacheKey(p); ok {
			t.Errorf("%s: rank(F) must stay keyless", name)
		}
	}
}

// TestEphemeralRelationsBypassCache: query intermediates (Pick results)
// have per-query identity; caching a result against them could never hit
// and would pin their rows, so a keyed evaluation over one bypasses the
// result cache.
func TestEphemeralRelationsBypassCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := cacheTestRelation(rng, 50)
	sub := rel.Pick([]int{0, 1, 2, 3, 4})
	if !sub.Ephemeral() || rel.Ephemeral() {
		t.Fatal("Pick results are ephemeral, base relations are not")
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	got, err := EvalIndicesCtxKeyed(context.Background(), p, sub, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := BMOIndicesMode(p, sub, BNL, EvalInterpreted); !sameIndices(got, want) {
		t.Fatalf("ephemeral evaluation = %v, oracle %v", got, want)
	}
	if s := ResultCacheState(p, sub, nil); s != "bypass" {
		t.Fatalf("ephemeral relation's result cache state = %q, want bypass", s)
	}
}

// TestFinishedStatementPinsNoBoundForm: a statement's bound form is
// per-statement state — once an unfiltered compiled evaluation returns,
// nothing the engine keeps across statements holds it.
func TestFinishedStatementPinsNoBoundForm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel := cacheTestRelation(rng, 400)
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	var form weak.Pointer[pref.Compiled]
	got := evalOn(p, rel, Auto, EvalAuto, allIndices(rel.Len()), nil, func(ev evaluated) {
		if ev.c == nil {
			t.Fatal("an unfiltered compilable statement must bind")
		}
		form = weak.Make(ev.c)
	})
	if want := BMOIndicesMode(p, rel, BNL, EvalInterpreted); !sameIndices(got, want) {
		t.Fatalf("evaluation = %v, oracle %v", got, want)
	}
	for range 3 {
		runtime.GC()
	}
	if form.Value() != nil {
		t.Fatal("a finished statement's bound form is still reachable")
	}
	runtime.KeepAlive(rel)
}
