package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// mixedRelation builds a relation with numeric, string and NULL-bearing
// columns, the workload compiled evaluation must digest bit-identically to
// the interface path.
func mixedRelation(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("M", relation.MustSchema(
		relation.Column{Name: "A1", Type: relation.Int},
		relation.Column{Name: "A2", Type: relation.Float},
		relation.Column{Name: "A3", Type: relation.String},
	))
	colors := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		var a2 pref.Value = rng.Float64() * 4
		if rng.Intn(10) == 0 {
			a2 = nil // NULL: off-scale, loses to any on-scale value
		}
		r.MustInsert(relation.Row{int64(rng.Intn(6)), a2, colors[rng.Intn(len(colors))]})
	}
	return r
}

// compiledTerm draws preference terms spanning every constructor family,
// including discrete layers over the string column and terms referencing
// an attribute outside the schema.
func compiledTerm(rng *rand.Rand) pref.Preference {
	explicit := pref.MustEXPLICIT("A3", []pref.Edge{
		{Worse: "blue", Better: "red"},
		{Worse: "blue", Better: "green"},
	})
	terms := []pref.Preference{
		pref.LOWEST("A1"),
		pref.HIGHEST("A2"),
		pref.AROUND("A2", 2),
		pref.MustBETWEEN("A1", 1, 3),
		pref.POS("A3", "red"),
		pref.NEG("A3", "blue", "green"),
		pref.MustPOSNEG("A1", []pref.Value{int64(1)}, []pref.Value{int64(4)}),
		pref.MustPOSPOS("A3", []pref.Value{"red"}, []pref.Value{"green"}),
		explicit,
		pref.Rank("F", pref.WeightedSum(1, 2), pref.AROUND("A1", 2), pref.HIGHEST("A2")),
		pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2")),
		pref.Pareto(pref.POS("A3", "red"), pref.AROUND("A2", 1)),
		pref.ParetoAll(pref.LOWEST("A1"), pref.LOWEST("A2"), pref.POS("A3", "green")),
		pref.ParetoProduct(pref.LOWEST("A1"), pref.HIGHEST("A2")),
		pref.Prioritized(pref.NEG("A3", "blue"), pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))),
		pref.Prioritized(explicit, pref.LOWEST("A2")),
		pref.Dual(pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))),
		pref.MustIntersection(
			pref.Prioritized(pref.LOWEST("A1"), pref.HIGHEST("A2")),
			pref.Prioritized(pref.HIGHEST("A2"), pref.LOWEST("A1"))),
		pref.MustDisjointUnion(pref.POS("A1", int64(0)), pref.NEG("A1", int64(5))),
		pref.GroupBy([]string{"A3"}, pref.LOWEST("A2")),
		pref.Pareto(pref.LOWEST("Zmissing"), pref.HIGHEST("A1")),
	}
	return terms[rng.Intn(len(terms))]
}

// TestCompiledAndInterpretedBMOAgree is the PR's acceptance property: for
// every preference constructor and every algorithm, compiled columnar
// evaluation returns exactly the BMO set of the interpreted interface
// path. The reference is interpreted BNL (window algorithms are sound for
// every strict partial order). Each pass also runs directly over the
// compiled form, outside the planner and the shard path.
func TestCompiledAndInterpretedBMOAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 40; trial++ {
		rel := mixedRelation(rng, 30+rng.Intn(700))
		p := compiledTerm(rng)
		want := BMOIndicesMode(p, rel, BNL, EvalInterpreted)
		for _, alg := range []Algorithm{Naive, BNL, SFS, Auto} {
			if got := BMOIndicesMode(p, rel, alg, EvalCompiled); !sameIndices(got, want) {
				t.Fatalf("trial %d: compiled %s diverged on %s over %d rows: %d vs %d rows",
					trial, alg, p, rel.Len(), len(got), len(want))
			}
		}
		c := compileFor(p, rel, EvalCompiled)
		for _, alg := range []Algorithm{BNL, SFS} {
			if got := runPass(alg, p, rel, c, allIndices(rel.Len()), nil); !sameIndices(got, want) {
				t.Fatalf("trial %d: compiled %s pass diverged on %s: %d vs %d rows", trial, alg, p, len(got), len(want))
			}
		}
	}
}

// TestInterpretedModeBypassesCompilation pins the benchmark baseline: the
// interpreted mode must agree with compiled evaluation result-for-result
// on the clean numeric workloads the benchmarks use.
func TestInterpretedModeBypassesCompilation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(rng, 100+rng.Intn(400), 2+rng.Intn(5))
		p := randomTerm(rng, 5)
		for _, alg := range []Algorithm{Naive, BNL, SFS} {
			a := BMOIndicesMode(p, rel, alg, EvalInterpreted)
			b := BMOIndicesMode(p, rel, alg, EvalCompiled)
			if !sameIndices(a, b) {
				t.Fatalf("trial %d: %s modes diverged on %s", trial, alg, p)
			}
		}
	}
}

// TestCompiledFallbackForForeignPreference: a preference implemented
// outside the library must transparently evaluate through the interface
// path under every mode and algorithm.
func TestCompiledFallbackForForeignPreference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rel := mixedRelation(rng, 300)
	p := foreignEnginePref{}
	want := BMOIndicesMode(p, rel, BNL, EvalInterpreted)
	if len(want) == 0 {
		t.Fatal("non-empty input must have maxima")
	}
	for _, alg := range []Algorithm{Naive, BNL, SFS, Auto} {
		if got := BMOIndices(p, rel, alg); !sameIndices(got, want) {
			t.Fatalf("foreign preference: %s diverged (%d vs %d rows)", alg, len(got), len(want))
		}
	}
	// Accumulations over foreign sub-terms fall back as a whole.
	mixed := pref.Pareto(pref.LOWEST("A1"), p)
	want = BMOIndicesMode(mixed, rel, BNL, EvalInterpreted)
	if got := BMOIndices(mixed, rel, Auto); !sameIndices(got, want) {
		t.Fatal("accumulation over a foreign sub-term diverged")
	}
}

// TestCompiledStreamAgreesAndStaysProgressive: the streaming evaluator
// must emit the exact BMO set over compiled columns and stay progressive
// for keyed terms, including the POS family the interpreted key derivation
// cannot serve.
func TestCompiledStreamAgreesAndStaysProgressive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := mixedRelation(rng, 800)
	p := pref.Prioritized(pref.NEG("A3", "blue"), pref.LOWEST("A2"))
	st := EvalStreamCtx(context.Background(), p, rel, Auto, nil)
	if !st.Progressive() {
		t.Fatal("level-keyed term must stream progressively under compilation")
	}
	got := st.Collect()
	want := BMOIndicesMode(p, rel, BNL, EvalInterpreted)
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d rows, batch %d", len(got), len(want))
	}
	inWant := make(map[int]bool, len(want))
	for _, i := range want {
		inWant[i] = true
	}
	for _, i := range got {
		if !inWant[i] {
			t.Fatalf("stream emitted non-maximal row %d", i)
		}
	}
}

// TestSortedPassWithNaNCoordinates: NaN score coordinates (a NaN in a
// FLOAT column of a chain product) leave the sorted pass's score order
// undefined; SFS, Auto and the sorted pass run straight over the form
// must agree with interpreted BNL under both modes.
func TestSortedPassWithNaNCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := relation.New("N", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	nan := math.NaN()
	for i := 0; i < 400; i++ {
		var a pref.Value = rng.Float64()
		if rng.Intn(5) == 0 {
			a = nan
		}
		r.MustInsert(relation.Row{a, rng.Float64()})
	}
	p := pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b"))
	want := BMOIndicesMode(p, r, BNL, EvalInterpreted)
	for _, mode := range []EvalMode{EvalInterpreted, EvalCompiled} {
		for _, alg := range []Algorithm{SFS, Auto} {
			if got := BMOIndicesMode(p, r, alg, mode); !sameIndices(got, want) {
				t.Fatalf("%s/%s diverged on NaN coordinates (%d vs %d rows)", alg, mode, len(got), len(want))
			}
		}
		if got := runPass(SFS, p, r, compileFor(p, r, mode), allIndices(r.Len()), nil); !sameIndices(got, want) {
			t.Fatalf("sfs pass/%s diverged on NaN coordinates (%d vs %d rows)", mode, len(got), len(want))
		}
	}
}

// foreignEnginePref is a strict partial order defined outside the pref
// library: only the interface path can evaluate it.
type foreignEnginePref struct{}

func (foreignEnginePref) Attrs() []string { return []string{"A1"} }
func (foreignEnginePref) Less(x, y pref.Tuple) bool {
	xv, xok := x.Get("A1")
	yv, yok := y.Get("A1")
	if !xok || !yok {
		return false
	}
	xn, xok := pref.Numeric(xv)
	yn, yok := pref.Numeric(yv)
	return xok && yok && xn+2 < yn
}
func (foreignEnginePref) String() string { return "FOREIGN(A1)" }
