package relation

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/pref"
)

func randRow(rng *rand.Rand) Row {
	var num pref.Value
	switch rng.Intn(8) {
	case 0:
		num = nil
	case 1:
		num = math.Inf(1)
	case 2:
		num = math.NaN()
	default:
		num = float64(rng.Intn(5))
	}
	var str pref.Value
	if rng.Intn(8) != 0 {
		str = string(rune('a' + rng.Intn(4)))
	}
	var ts pref.Value
	if rng.Intn(8) != 0 {
		ts = time.Unix(int64(rng.Intn(4)), int64(rng.Intn(2))*500_000_000)
	}
	return Row{num, str, ts}
}

func randWhereRelation(rng *rand.Rand, n int) *Relation {
	r := New("T", MustSchema(
		Column{Name: "num", Type: Float},
		Column{Name: "str", Type: String},
		Column{Name: "ts", Type: Time},
	))
	for i := 0; i < n; i++ {
		r.MustInsert(randRow(rng))
	}
	return r
}

// TestWhereAgreesWithSelect is the cross-evaluation property of the
// compiled hard-selection path over real relations (vector and dictionary
// bindings included): Where must return exactly the rows the interpreted
// Select keeps, for every predicate shape, including NaN literals, NULLs,
// and sub-second time instants the float image of a TIME column would
// truncate.
func TestWhereAgreesWithSelect(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := randWhereRelation(rng, 1+rng.Intn(40))
		preds := []filter.Pred{
			&filter.Cmp{Attr: "num", Op: ops[rng.Intn(6)], Value: float64(rng.Intn(5))},
			&filter.Cmp{Attr: "num", Op: ops[rng.Intn(6)], Value: math.NaN()},
			&filter.Cmp{Attr: "str", Op: ops[rng.Intn(6)], Value: "b"},
			&filter.Cmp{Attr: "ts", Op: ops[rng.Intn(6)], Value: time.Unix(2, 500_000_000)},
			&filter.In{Attr: "str", Set: pref.NewValueSet("a", "c"), Negate: rng.Intn(2) == 0},
			&filter.Like{Attr: "str", Pattern: "a%"},
			&filter.IsNull{Attr: "num", Negate: rng.Intn(2) == 0},
			&filter.And{
				L: &filter.Cmp{Attr: "num", Op: ">=", Value: 1.0},
				R: &filter.Not{E: &filter.Cmp{Attr: "str", Op: "=", Value: "d"}},
			},
		}
		for _, p := range preds {
			got := rel.Where(p)
			want := rel.Select(p.Eval)
			if got.Len() != want.Len() {
				t.Fatalf("seed %d, %s: Where has %d rows, Select %d\n%s", seed, p, got.Len(), want.Len(), rel)
			}
			for i := 0; i < got.Len(); i++ {
				for j, v := range got.Row(i) {
					if !pref.EqualValues(v, want.Row(i)[j]) && !bothNaN(v, want.Row(i)[j]) {
						t.Fatalf("seed %d, %s: row %d differs: %v vs %v", seed, p, i, got.Row(i), want.Row(i))
					}
				}
			}
		}
	}
}

func bothNaN(a, b pref.Value) bool {
	na, aok := pref.Numeric(a)
	nb, bok := pref.Numeric(b)
	return aok && bok && math.IsNaN(na) && math.IsNaN(nb)
}

// TestWhereBindingClasses pins the binding classification: numeric
// comparisons vectorize, discrete single-attribute conditions dictionary-
// code, and the whole tree stays off the row-fallback path.
func TestWhereBindingClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := randWhereRelation(rng, 30)
	cd := filter.Compile(&filter.And{
		L: &filter.Cmp{Attr: "num", Op: "<", Value: 3.0},
		R: &filter.In{Attr: "str", Set: pref.NewValueSet("a", "b")},
	}, rel)
	vector, dict, row := cd.BindClasses()
	if vector != 1 || dict != 1 || row != 0 {
		t.Fatalf("binding classes = (%d, %d, %d), want (1, 1, 0)", vector, dict, row)
	}
	if !cd.Vectorized() || cd.Mode() != "vectorized" {
		t.Fatal("tree must classify vectorized")
	}
	// TIME comparisons must NOT take the float fast path (seconds-truncated
	// image); they dictionary-code instead.
	cd = filter.Compile(&filter.Cmp{Attr: "ts", Op: "=", Value: time.Unix(2, 500_000_000)}, rel)
	vector, dict, _ = cd.BindClasses()
	if vector != 0 || dict != 1 {
		t.Fatalf("TIME equality bound (vector=%d, dict=%d), want dictionary", vector, dict)
	}
}

// TestVersionCounter pins the mutation counter: Insert and SortBy bump it,
// reads do not.
func TestVersionCounter(t *testing.T) {
	rel := New("V", MustSchema(Column{Name: "a", Type: Int}))
	v0 := rel.Version()
	rel.MustInsert(Row{int64(2)}, Row{int64(1)})
	if rel.Version() != v0+2 {
		t.Fatalf("two inserts: version %d, want %d", rel.Version(), v0+2)
	}
	rel.FloatColumn("a")
	rel.EqColumn("a")
	if rel.Version() != v0+2 {
		t.Fatal("column reads must not bump the version")
	}
	rel.SortBy(func(a, b pref.Tuple) bool {
		av, _ := a.Get("a")
		bv, _ := b.Get("a")
		c, _ := pref.CompareValues(av, bv)
		return c < 0
	})
	if rel.Version() != v0+3 {
		t.Fatalf("SortBy must bump the version, got %d", rel.Version())
	}
}

// TestEphemeralSelectionBypassesCache: Where against a Pick result (a
// per-query intermediate) selects what Select selects.
func TestEphemeralSelectionBypassesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := randWhereRelation(rng, 20)
	sub := rel.Pick([]int{0, 1, 2, 3, 4, 5})
	pred := &filter.Cmp{Attr: "num", Op: ">=", Value: 1.0}
	got := sub.Where(pred)
	want := sub.Select(pred.Eval)
	if got.Len() != want.Len() {
		t.Fatalf("ephemeral Where = %d rows, Select = %d", got.Len(), want.Len())
	}
}

// TestWhereIndicesIsCallerOwned: mutating the returned slice must not
// corrupt a later identical query.
func TestWhereIndicesIsCallerOwned(t *testing.T) {
	rel := New("O", MustSchema(Column{Name: "num", Type: Float})).MustInsert(
		Row{0.0}, Row{1.0}, Row{2.0}, Row{3.0},
	)
	pred := &filter.Cmp{Attr: "num", Op: ">=", Value: 2.0}
	first := rel.WhereIndices(pred)
	first[0] = 0 // caller abuse
	second := rel.WhereIndices(pred)
	if len(second) != 2 || second[0] != 2 || second[1] != 3 {
		t.Fatalf("selection corrupted by caller mutation: %v", second)
	}
}
