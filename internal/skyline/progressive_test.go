package skyline

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

func randRel(seed int64, n int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		rel.MustInsert(relation.Row{rng.Float64(), rng.Float64()})
	}
	return rel
}

func TestProgressiveMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rel := randRel(seed, 200)
		c := Clause{Dims: []Dim{{"a", Min}, {"b", Max}}}
		var got []int
		n, err := Progressive(c, rel, func(row int) bool {
			got = append(got, row)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compute(c, rel, engine.Naive)
		if err != nil {
			t.Fatal(err)
		}
		if n != want.Len() || len(got) != want.Len() {
			t.Fatalf("seed %d: progressive emitted %d rows, batch found %d", seed, n, want.Len())
		}
		// Same set of rows: compare sorted indices against batch membership.
		sort.Ints(got)
		batch := map[string]bool{}
		for i := 0; i < want.Len(); i++ {
			a, _ := want.Tuple(i).Get("a")
			b, _ := want.Tuple(i).Get("b")
			batch[keyOf(a, b)] = true
		}
		for _, row := range got {
			a, _ := rel.Tuple(row).Get("a")
			b, _ := rel.Tuple(row).Get("b")
			if !batch[keyOf(a, b)] {
				t.Fatalf("seed %d: progressive emitted non-skyline row %d", seed, row)
			}
		}
	}
}

func keyOf(a, b any) string {
	return string(rune(int(a.(float64)*1e9))) + "/" + string(rune(int(b.(float64)*1e9)))
}

func TestProgressiveEveryPrefixIsValid(t *testing.T) {
	// The defining property of progressive computation: each emitted row
	// is already final (a true skyline member) at emission time.
	rel := randRel(42, 500)
	c := Clause{Dims: []Dim{{"a", Min}, {"b", Min}}}
	want, _ := Compute(c, rel, engine.Naive)
	inSkyline := map[int]bool{}
	for i := 0; i < rel.Len(); i++ {
		for j := 0; j < want.Len(); j++ {
			same := true
			for _, col := range []string{"a", "b"} {
				x, _ := rel.Tuple(i).Get(col)
				y, _ := want.Tuple(j).Get(col)
				if x != y {
					same = false
					break
				}
			}
			if same {
				inSkyline[i] = true
			}
		}
	}
	_, err := Progressive(c, rel, func(row int) bool {
		if !inSkyline[row] {
			t.Fatalf("row %d emitted but not in the skyline", row)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProgressiveEarlyStop(t *testing.T) {
	rel := randRel(7, 1000)
	c := Clause{Dims: []Dim{{"a", Min}, {"b", Min}}}
	calls := 0
	n, err := Progressive(c, rel, func(row int) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || calls != 3 {
		t.Errorf("early stop: emitted %d, calls %d", n, calls)
	}
}

func TestFirstK(t *testing.T) {
	rel := randRel(9, 500)
	c := Clause{Dims: []Dim{{"a", Min}, {"b", Min}}}
	rows, err := FirstK(c, rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("FirstK(2) = %d rows", len(rows))
	}
	// Asking for more than the skyline holds returns the whole skyline.
	want, _ := Compute(c, rel, engine.BNL)
	rows, err = FirstK(c, rel, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want.Len() {
		t.Errorf("FirstK(∞) = %d, skyline = %d", len(rows), want.Len())
	}
}

func TestProgressiveBadClause(t *testing.T) {
	rel := randRel(1, 10)
	if _, err := Progressive(Clause{}, rel, func(int) bool { return true }); err == nil {
		t.Error("empty clause must fail")
	}
	if _, err := FirstK(Clause{}, rel, 3); err == nil {
		t.Error("FirstK with empty clause must fail")
	}
}
