package rank

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pref"
	"repro/internal/relation"
)

func scoreRel(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Row{rng.Float64(), rng.Float64()})
	}
	return r
}

func testRank() *pref.RankPref {
	return pref.Rank("F", pref.WeightedSum(1, 2), pref.HIGHEST("a"), pref.HIGHEST("b"))
}

func TestTopKOrderingAndTies(t *testing.T) {
	r := relation.New("R", relation.MustSchema(relation.Column{Name: "a", Type: relation.Int})).MustInsert(
		relation.Row{int64(5)},
		relation.Row{int64(9)},
		relation.Row{int64(9)}, // tie with row 1: lower row index first
		relation.Row{int64(1)},
	)
	p := pref.Rank("F", pref.WeightedSum(1), pref.HIGHEST("a"))
	got := TopK(p, r, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Row != 1 || got[1].Row != 2 || got[2].Row != 0 {
		t.Errorf("rows = %v", got)
	}
	if got[0].Score != 9 {
		t.Errorf("score = %v", got[0].Score)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := scoreRel(rng, 5)
	p := testRank()
	if got := TopK(p, r, 0); got != nil {
		t.Error("k=0 returns nil")
	}
	if got := TopK(p, r, -3); got != nil {
		t.Error("negative k returns nil")
	}
	if got := TopK(p, r, 100); len(got) != 5 {
		t.Errorf("k beyond n returns all rows, got %d", len(got))
	}
	empty := relation.New("E", r.Schema())
	if got := TopK(p, empty, 3); len(got) != 0 {
		t.Error("empty relation yields no results")
	}
}

// TestThresholdAgreesWithHeap: the threshold algorithm must produce the
// exact TopK ranking for monotone F, on random inputs.
func TestThresholdAgreesWithHeap(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := scoreRel(rng, 10+rng.Intn(200))
		p := testRank()
		k := 1 + rng.Intn(10)
		want := TopK(p, r, k)
		got, _ := ThresholdTopK(p, r, k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Row != want[i].Row || got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestThresholdWithStringScoreDimension: a rank(F) mixing a numeric chain
// with a SCORE feature over a string column must agree between the heap
// scan and the threshold algorithm — the ordinal-coded columnar path the
// compiled form takes for discrete dimensions.
func TestThresholdWithStringScoreDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	colors := []string{"red", "blue", "gray", "green", "black"}
	colorScore := map[string]float64{"red": 5, "blue": 3, "gray": 0, "green": 2, "black": 1}
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "color", Type: relation.String},
		relation.Column{Name: "a", Type: relation.Float},
	))
	for i := 0; i < 500; i++ {
		r.MustInsert(relation.Row{colors[rng.Intn(len(colors))], rng.Float64() * 10})
	}
	p := pref.Rank("F", pref.WeightedSum(1, 1),
		pref.SCORE("color", "colorScore", func(v pref.Value) float64 {
			s, _ := v.(string)
			return colorScore[s]
		}),
		pref.HIGHEST("a"))
	for _, k := range []int{1, 5, 17} {
		want := TopK(p, r, k)
		got, stats := ThresholdTopK(p, r, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d rank %d: %v != %v", k, i, got[i], want[i])
			}
		}
		if stats.Scanned == 0 {
			t.Fatal("stats must be populated")
		}
	}
}

// topKOn is TopKOnCtx under an uncancellable context, which cannot fail.
func topKOn(p pref.Scorer, r *relation.Relation, k int, idx []int) []Result {
	out, _ := TopKOnCtx(context.Background(), p, r, k, idx)
	return out
}

// TestTopKOnSubset: the index-chained entry point must rank exactly the
// candidate subset, returning base-relation row positions.
func TestTopKOnSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := scoreRel(rng, 200)
	p := testRank()
	var idx []int
	for i := 0; i < r.Len(); i++ {
		if i%3 != 0 {
			idx = append(idx, i)
		}
	}
	got := topKOn(p, r, 7, idx)
	// Reference: materialize the subset and rank it, then map back.
	sub := r.Pick(idx)
	want := TopK(p, sub, 7)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Row != idx[want[i].Row] || got[i].Score != want[i].Score {
			t.Fatalf("rank %d: got %v, want row %d score %v", i, got[i], idx[want[i].Row], want[i].Score)
		}
	}
	// A highly selective subset scores off a compiled vector bound over
	// its gathered rows instead of a whole-relation bind; results must
	// agree with the compiled whole-relation ranking restricted to the
	// same rows.
	tiny := idx[:4]
	got = topKOn(p, r, 2, tiny)
	wantTiny := TopK(p, r.Pick(tiny), 2)
	for i := range wantTiny {
		if got[i].Row != tiny[wantTiny[i].Row] || got[i].Score != wantTiny[i].Score {
			t.Fatalf("tiny subset rank %d: got %v, want row %d score %v",
				i, got[i], tiny[wantTiny[i].Row], wantTiny[i].Score)
		}
	}
	// The gathered bind is dropped with the query: a keyed term leaves the
	// score cache untouched, and once a whole-relation vector is cached it
	// serves the tiny subset too.
	ResetScoreCache()
	defer ResetScoreCache()
	keyed := pref.HIGHEST("a")
	first := topKOn(keyed, r, 2, tiny)
	if h, m := ScoreCacheStats(); h != 0 || m != 0 {
		t.Fatalf("gathered scoring touched the score cache: hits %d misses %d", h, m)
	}
	TopK(keyed, r, 2) // binds and caches the whole-relation vector
	again := topKOn(keyed, r, 2, tiny)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("gathered and cached scoring disagree at rank %d: %v vs %v", i, first[i], again[i])
		}
	}
}

// TestScoreCacheReuseAndInvalidation: keyed Scorer features are served
// from the score-vector cache on repeat, a row mutation strands the
// entry, and results stay correct either way.
func TestScoreCacheReuseAndInvalidation(t *testing.T) {
	ResetScoreCache()
	defer ResetScoreCache()
	rng := rand.New(rand.NewSource(43))
	r := scoreRel(rng, 300)
	p := testRank() // parts HIGHEST(a), HIGHEST(b) carry faithful keys
	first, _ := ThresholdTopK(p, r, 5)
	if h, m := ScoreCacheStats(); h != 0 || m == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", h, m)
	}
	repeat, _ := ThresholdTopK(p, r, 5)
	if h, _ := ScoreCacheStats(); h == 0 {
		t.Fatal("repeated run must hit the score cache")
	}
	for i := range first {
		if first[i] != repeat[i] {
			t.Fatalf("cached run diverged: %v vs %v", repeat, first)
		}
	}
	r.MustInsert(relation.Row{100.0, 100.0})
	got, _ := ThresholdTopK(p, r, 1)
	if len(got) != 1 || got[0].Row != r.Len()-1 {
		t.Fatalf("stale vector: inserted best row must win, got %v", got)
	}
}

func TestThresholdSavesAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := scoreRel(rng, 5000)
	p := testRank()
	_, stats := ThresholdTopK(p, r, 5)
	if stats.Scanned >= r.Len() {
		t.Errorf("threshold scanned all %d rows", stats.Scanned)
	}
	if stats.SortedAccesses == 0 || stats.RandomAccesses == 0 {
		t.Error("access statistics must be populated")
	}
}

func TestThresholdEdgeCases(t *testing.T) {
	p := testRank()
	empty := relation.New("E", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	if got, _ := ThresholdTopK(p, empty, 3); len(got) != 0 {
		t.Error("empty relation")
	}
	if got, _ := ThresholdTopK(p, empty, 0); got != nil {
		t.Error("k=0")
	}
	rng := rand.New(rand.NewSource(2))
	r := scoreRel(rng, 4)
	if got, _ := ThresholdTopK(p, r, 10); len(got) != 4 {
		t.Errorf("k beyond n returns all rows, got %d", len(got))
	}
}

func TestThresholdStopsEarlyOnSkewedData(t *testing.T) {
	// One row dominates both lists: the algorithm should stop after very
	// few rounds.
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	r.MustInsert(relation.Row{100.0, 100.0})
	for i := 0; i < 1000; i++ {
		r.MustInsert(relation.Row{float64(i%10) * 0.1, float64(i%7) * 0.1})
	}
	got, stats := ThresholdTopK(testRank(), r, 1)
	if len(got) != 1 || got[0].Row != 0 {
		t.Fatalf("winner = %v", got)
	}
	if stats.Scanned > 20 {
		t.Errorf("skewed data should stop almost immediately, scanned %d", stats.Scanned)
	}
}
