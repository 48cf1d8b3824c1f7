package engine

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

func TestEvalStreamFirstResultBeforeFullConsumption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := antiCorrelated(rng, 5000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	st := EvalStreamCtx(context.Background(), p, rel, Auto, nil)
	if !st.Progressive() {
		t.Fatal("chain product must stream progressively")
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("non-empty input must yield a first maximum")
	}
	if st.Consumed() >= rel.Len() {
		t.Fatalf("first maximum only after consuming %d of %d rows", st.Consumed(), rel.Len())
	}
}

func TestEvalStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rel := randomRelation(rng, 50+rng.Intn(400), 2+rng.Intn(6))
		p := randomTerm(rng, 6)
		st := EvalStreamCtx(context.Background(), p, rel, Auto, nil)
		got := st.Collect()
		sort.Ints(got)
		want := BMOIndices(p, rel, Naive)
		if !sameIndices(got, want) {
			t.Fatalf("trial %d: stream of %s emitted %d rows, batch %d (progressive=%v)",
				trial, p, len(got), len(want), st.Progressive())
		}
	}
}

func TestEvalStreamEveryEmissionIsFinal(t *testing.T) {
	// The defining progressive property: each emitted row is a true maximum
	// at emission time, never retracted.
	rng := rand.New(rand.NewSource(3))
	rel := antiCorrelated(rng, 1000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	inResult := make(map[int]bool)
	for _, i := range BMOIndices(p, rel, BNL) {
		inResult[i] = true
	}
	st := EvalStreamCtx(context.Background(), p, rel, Auto, nil)
	st.Each(func(row int) bool {
		if !inResult[row] {
			t.Fatalf("stream emitted non-maximal row %d", row)
		}
		return true
	})
}

func TestEvalStreamFallbackForGeneralPreferences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := randomRelation(rng, 300, 4)
	// An EXPLICIT graph is a genuine partial order with no compatible sort
	// key, in the interpreted and the compiled world alike (POS, the old
	// example here, became keyed with compiled level vectors).
	p := pref.MustEXPLICIT("A1", []pref.Edge{
		{Worse: int64(0), Better: int64(1)},
		{Worse: int64(0), Better: int64(2)},
	})
	st := EvalStreamCtx(context.Background(), p, rel, Auto, nil)
	if st.Progressive() {
		t.Fatal("EXPLICIT has no key: stream must report batch fallback")
	}
	got := st.Collect()
	sort.Ints(got)
	if !sameIndices(got, BMOIndices(p, rel, BNL)) {
		t.Error("fallback stream diverged from batch BNL")
	}
	if st.Consumed() != rel.Len() {
		t.Errorf("fallback consumed %d of %d", st.Consumed(), rel.Len())
	}
}

func TestEvalStreamEarlyStopAndExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := antiCorrelated(rng, 2000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	st := EvalStreamCtx(context.Background(), p, rel, Auto, nil)
	var first3 []int
	n := st.Each(func(row int) bool {
		first3 = append(first3, row)
		return len(first3) < 3
	})
	if n != 3 || len(first3) != 3 {
		t.Fatalf("early stop emitted %d", n)
	}
	// The stream resumes where it left off.
	rest := st.Collect()
	all := append(first3, rest...)
	sort.Ints(all)
	if !sameIndices(all, BMOIndices(p, rel, BNL)) {
		t.Error("resumed stream must complete the exact BMO set")
	}
	if _, ok := st.Next(); ok {
		t.Error("exhausted stream must keep returning ok=false")
	}
}

func TestEvalStreamEmptyAndSingleton(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "d1", Type: relation.Float}))
	st := EvalStreamCtx(context.Background(), pref.LOWEST("d1"), rel, Auto, nil)
	if _, ok := st.Next(); ok {
		t.Error("empty input must yield nothing")
	}
	rel.MustInsert(relation.Row{1.5})
	st = EvalStreamCtx(context.Background(), pref.LOWEST("d1"), rel, Auto, nil)
	if row, ok := st.Next(); !ok || row != 0 {
		t.Errorf("singleton: row=%d ok=%v", row, ok)
	}
	if _, ok := st.Next(); ok {
		t.Error("singleton exhausts after one row")
	}
}

// TestEvalStreamOnMatchesBMOIndicesOn: streaming over a candidate subset
// of the base relation must emit exactly the subset's BMO result, across
// random terms (progressive and batch-fallback alike).
func TestEvalStreamOnMatchesBMOIndicesOn(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(rng, 50+rng.Intn(300), 2+rng.Intn(5))
		p := randomTerm(rng, 6)
		var idx []int
		for i := 0; i < rel.Len(); i++ {
			if rng.Intn(3) > 0 {
				idx = append(idx, i)
			}
		}
		st := EvalStreamCtx(context.Background(), p, rel, Auto, idx)
		got := st.Collect()
		sort.Ints(got)
		want := BMOIndicesOn(p, rel, Naive, idx)
		if !sameIndices(got, want) {
			t.Fatalf("trial %d: stream-on of %s emitted %v, batch %v (progressive=%v)",
				trial, p, got, want, st.Progressive())
		}
	}
}

// TestEvalStreamOnSubsetIsProgressive: a chain product streams
// progressively over any candidate subset, and the first pull yields.
func TestEvalStreamOnSubsetIsProgressive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rel := antiCorrelated(rng, 2000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	for _, idx := range [][]int{{0, 5, 9, 40, 77}, allIndices(rel.Len())[:500]} {
		st := EvalStreamCtx(context.Background(), p, rel, Auto, idx)
		if _, ok := st.Next(); !ok {
			t.Fatal("stream must yield")
		}
		if !st.Progressive() {
			t.Fatalf("keyed chain product must stream progressively over %d candidates", len(idx))
		}
		st.Close()
	}
}

func TestEvalStreamTuples(t *testing.T) {
	tuples := []pref.Tuple{
		pref.MapTuple{"v": int64(3)},
		pref.MapTuple{"v": int64(1)},
		pref.MapTuple{"v": int64(1)},
		pref.MapTuple{"v": int64(2)},
	}
	st := EvalStreamTuples(pref.LOWEST("v"), tuples)
	got := st.Collect()
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("both minimal duplicates must stream: %v", got)
	}
}
