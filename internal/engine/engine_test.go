package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pref"
	"repro/internal/relation"
)

// randomRelation builds an n-row relation over int columns A1, A2 with
// small domains (to force ties and duplicates).
func randomRelation(rng *rand.Rand, n, domain int) *relation.Relation {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "A1", Type: relation.Int},
		relation.Column{Name: "A2", Type: relation.Int},
	))
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Row{int64(rng.Intn(domain)), int64(rng.Intn(domain))})
	}
	return r
}

// randomTerm draws one of a representative set of preference terms.
func randomTerm(rng *rand.Rand, domain int) pref.Preference {
	v := func() int64 { return int64(rng.Intn(domain)) }
	terms := []pref.Preference{
		pref.LOWEST("A1"),
		pref.HIGHEST("A2"),
		pref.AROUND("A1", float64(v())),
		pref.POS("A1", v(), v()),
		pref.NEG("A2", v()),
		pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2")),
		pref.Pareto(pref.AROUND("A1", float64(v())), pref.HIGHEST("A2")),
		pref.Prioritized(pref.POS("A1", v()), pref.LOWEST("A2")),
		pref.Prioritized(pref.LOWEST("A1"), pref.HIGHEST("A2")),
		pref.Pareto(pref.POS("A1", v(), v()), pref.NEG("A1", v())),
		pref.Rank("F", pref.WeightedSum(1, 2), pref.AROUND("A1", float64(v())), pref.HIGHEST("A2")),
		pref.GroupBy([]string{"A1"}, pref.LOWEST("A2")),
		pref.Dual(pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))),
	}
	return terms[rng.Intn(len(terms))]
}

func sameIndices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAlgorithmsAgreePropertyBased: every evaluation algorithm must compute
// exactly the declarative σ[P](R) — tested against the naive reference on
// random terms and relations.
func TestAlgorithmsAgreePropertyBased(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 3+rng.Intn(40), 2+rng.Intn(5))
		p := randomTerm(rng, 5)
		want := BMOIndices(p, rel, Naive)
		for _, alg := range []Algorithm{BNL, SFS, Decomposition, Auto} {
			if got := BMOIndices(p, rel, alg); !sameIndices(got, want) {
				t.Logf("seed %d: %s disagrees on %s: got %v want %v", seed, alg, p, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBMOAgainstSemanticReference: BMOIndices must equal pref.Max over the
// tuples (the declarative Definition 15).
func TestBMOAgainstSemanticReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(rng, 20, 4)
		p := randomTerm(rng, 4)
		got := BMOIndices(p, rel, BNL)
		maximal := make(map[int]bool)
		for _, i := range got {
			maximal[i] = true
		}
		for i := 0; i < rel.Len(); i++ {
			isMax := true
			for j := 0; j < rel.Len(); j++ {
				if i != j && p.Less(rel.Tuple(i), rel.Tuple(j)) {
					isMax = false
					break
				}
			}
			if isMax != maximal[i] {
				t.Fatalf("trial %d: row %d maximal=%v but in result=%v under %s", trial, i, isMax, maximal[i], p)
			}
		}
	}
}

func TestBMONeverEmptyOnNonEmptyInput(t *testing.T) {
	// BMO avoids the empty-result effect: max of a finite non-empty poset
	// is non-empty.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rel := randomRelation(rng, 1+rng.Intn(30), 3)
		p := randomTerm(rng, 3)
		if len(BMOIndices(p, rel, BNL)) == 0 {
			t.Fatalf("empty BMO result for %s over %d rows", p, rel.Len())
		}
	}
}

func TestBMOEmptyRelation(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
	for _, alg := range []Algorithm{Naive, BNL, SFS, Decomposition, Auto} {
		if got := BMOIndices(pref.LOWEST("A1"), rel, alg); len(got) != 0 {
			t.Errorf("%s: non-empty result on empty relation", alg)
		}
	}
}

func TestBMOPreservesDuplicates(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
	rel.MustInsert(relation.Row{int64(1)}, relation.Row{int64(1)}, relation.Row{int64(2)})
	got := BMO(pref.LOWEST("A1"), rel, BNL)
	if got.Len() != 2 {
		t.Errorf("both copies of the minimal value must survive, got %d rows", got.Len())
	}
}

func TestCascadeAndChainShortcut(t *testing.T) {
	// Prop 11: σ[P1&P2](R) = σ[P2](σ[P1](R)) when P1 is a chain.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(rng, 25, 4)
		p1 := pref.LOWEST("A1") // a chain
		p2 := pref.AROUND("A2", float64(rng.Intn(4)))
		direct := BMOIndices(pref.Prioritized(p1, p2), rel, Naive)
		cascade := Cascade(rel, Naive, p1, p2)
		var cascadeIdx []int
		for i := 0; i < cascade.Len(); i++ {
			v1, _ := cascade.Tuple(i).Get("A1")
			v2, _ := cascade.Tuple(i).Get("A2")
			for j := 0; j < rel.Len(); j++ {
				w1, _ := rel.Tuple(j).Get("A1")
				w2, _ := rel.Tuple(j).Get("A2")
				if pref.EqualValues(v1, w1) && pref.EqualValues(v2, w2) {
					cascadeIdx = append(cascadeIdx, j)
					break
				}
			}
		}
		if len(direct) != cascade.Len() {
			t.Fatalf("trial %d: |direct|=%d |cascade|=%d", trial, len(direct), cascade.Len())
		}
	}
}

func TestGroupByDefinition16(t *testing.T) {
	// σ[P groupby A](R) must equal σ[A↔ & P](R).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(rng, 30, 4)
		p := pref.AROUND("A2", float64(rng.Intn(4)))
		viaGrouping := GroupBy(p, []string{"A1"}, rel, BNL)
		viaAntiChain := BMO(pref.GroupBy([]string{"A1"}, p), rel, BNL)
		if viaGrouping.Len() != viaAntiChain.Len() {
			t.Fatalf("trial %d: grouping %d rows vs anti-chain %d rows", trial, viaGrouping.Len(), viaAntiChain.Len())
		}
	}
}

func TestResultSizeDefinition18(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "A1", Type: relation.Int},
		relation.Column{Name: "A2", Type: relation.Int},
	)).MustInsert(
		relation.Row{int64(1), int64(1)},
		relation.Row{int64(1), int64(2)}, // same A1 value, also maximal
		relation.Row{int64(2), int64(3)},
	)
	// LOWEST(A1): rows 0 and 1 maximal but only ONE distinct A1 value.
	if got := ResultSize(pref.LOWEST("A1"), rel, Naive); got != 1 {
		t.Errorf("size counts distinct A-values: got %d, want 1", got)
	}
}

func TestPerfectMatches(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "Color", Type: relation.String},
		relation.Column{Name: "Price", Type: relation.Int},
	)).MustInsert(
		relation.Row{"red", int64(100)},
		relation.Row{"blue", int64(50)},
	)
	// POS(red): row 0 is a perfect match.
	p := pref.POS("Color", "red")
	pm := PerfectMatches(p, rel, Naive)
	if pm.Len() != 1 {
		t.Fatalf("perfect matches = %d, want 1", pm.Len())
	}
	// LOWEST has no decidable max(P): no perfect matches reported.
	if PerfectMatches(pref.LOWEST("Price"), rel, Naive).Len() != 0 {
		t.Error("LOWEST has no perfect-match oracle")
	}
	// AROUND: only distance 0 is perfect.
	ar := pref.AROUND("Price", 50)
	if PerfectMatches(ar, rel, Naive).Len() != 1 {
		t.Error("AROUND perfect match is the exact target")
	}
}

func TestIsPerfectComposites(t *testing.T) {
	tup := pref.MapTuple{"Color": "red", "Price": int64(50)}
	pos := pref.POS("Color", "red")
	ar := pref.AROUND("Price", 50)
	if !IsPerfect(pref.Pareto(pos, ar), tup) {
		t.Error("both components perfect ⇒ Pareto perfect")
	}
	if !IsPerfect(pref.Prioritized(pos, ar), tup) {
		t.Error("both components perfect ⇒ prioritized perfect")
	}
	if IsPerfect(pref.Pareto(pos, pref.AROUND("Price", 60)), tup) {
		t.Error("imperfect component ⇒ imperfect accumulation")
	}
	if !IsPerfect(pref.AntiChain("X"), tup) {
		t.Error("anti-chains are all-perfect")
	}
	if IsPerfect(pref.LOWEST("Price"), tup) {
		t.Error("no oracle ⇒ not perfect")
	}
	// NEG / POSNEG / POSPOS / EXPLICIT oracles.
	if !IsPerfect(pref.NEG("Color", "gray"), tup) {
		t.Error("non-disliked value is perfect under NEG")
	}
	if IsPerfect(pref.NEG("Color", "red"), tup) {
		t.Error("disliked value is not perfect")
	}
	pn := pref.MustPOSNEG("Color", []pref.Value{"red"}, []pref.Value{"gray"})
	if !IsPerfect(pn, tup) {
		t.Error("POS member perfect under POS/NEG")
	}
	pp := pref.MustPOSPOS("Color", []pref.Value{"blue"}, []pref.Value{"red"})
	if IsPerfect(pp, tup) {
		t.Error("POS2 member is not perfect under POS/POS")
	}
	ex := pref.MustEXPLICIT("Color", []pref.Edge{{Worse: "blue", Better: "red"}})
	if !IsPerfect(ex, tup) {
		t.Error("graph maximum is perfect under EXPLICIT")
	}
	ex2 := pref.MustEXPLICIT("Color", []pref.Edge{{Worse: "red", Better: "blue"}})
	if IsPerfect(ex2, tup) {
		t.Error("dominated graph value is not perfect")
	}
}

func TestAlgorithmString(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		Auto: "auto", Naive: "naive", BNL: "bnl", SFS: "sfs", Decomposition: "decomposition",
	} {
		if alg.String() != want {
			t.Errorf("%d renders as %q", alg, alg.String())
		}
	}
	if s := Algorithm(42).String(); s != fmt.Sprintf("Algorithm(%d)", 42) {
		t.Errorf("unknown algorithm rendering %q", s)
	}
}

func TestChainDimsDetection(t *testing.T) {
	if dims, ok := chainDims(pref.ParetoAll(pref.LOWEST("a"), pref.HIGHEST("b"), pref.LOWEST("c"))); !ok || len(dims) != 3 {
		t.Error("3-dim chain product must be detected")
	}
	if _, ok := chainDims(pref.Pareto(pref.LOWEST("a"), pref.AROUND("b", 1))); ok {
		t.Error("AROUND leaf must not count as a chain dim")
	}
	if _, ok := chainDims(pref.Pareto(pref.LOWEST("a"), pref.HIGHEST("a"))); ok {
		t.Error("duplicate attribute dims are out of scope for coordinate dominance")
	}
	if _, ok := chainDims(pref.Prioritized(pref.LOWEST("a"), pref.LOWEST("b"))); ok {
		t.Error("prioritized roots are not chain products")
	}
}

func TestSFSKeyCoverage(t *testing.T) {
	if _, ok := keyColumns(pref.Pareto(pref.LOWEST("a"), pref.AROUND("b", 1))); !ok {
		t.Error("Pareto of scorers has a scalar key")
	}
	if cols, ok := keyColumns(pref.Prioritized(pref.LOWEST("a"), pref.Pareto(pref.LOWEST("b"), pref.HIGHEST("c")))); !ok || len(cols) != 2 {
		t.Error("prioritized of scalar-keyed terms has a lex key of two columns")
	}
	if _, ok := keyColumns(pref.POS("a", int64(1))); ok {
		t.Error("POS has no compatible interpreted key")
	}
	if _, ok := keyColumns(pref.Pareto(pref.POS("a", int64(1)), pref.LOWEST("b"))); ok {
		t.Error("Pareto containing POS has no interpreted key; SFS must fall back")
	}
}
