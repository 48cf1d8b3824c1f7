package relation

import (
	"math"
	"testing"
	"time"

	"repro/internal/pref"
)

// TestGatheredColumns: a gathered source must present exactly the
// selected rows — scale values, on-scale masks and tuple views by slot —
// and equality codes that are dense and agree with pref.EqualValues on
// every pair, within one relation and across shards (whose own code
// dictionaries are unrelated).
func TestGatheredColumns(t *testing.T) {
	schema := MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "f", Type: Float},
		Column{Name: "s", Type: String},
		Column{Name: "at", Type: Time},
	)
	t0 := time.Unix(1000, 5)
	rows := []Row{
		{int64(0), 1.5, "a", t0},
		{int64(1), nil, "b", t0.Add(time.Nanosecond)}, // same second, different instant
		{int64(2), math.NaN(), nil, nil},
		{int64(3), 1.5, "a", t0},
		{int64(4), math.NaN(), "b", nil},
		{int64(5), math.Inf(1), nil, t0},
		{int64(6), nil, "c", t0},
		{int64(7), 3.0, "a", nil},
		{int64(8), 0.0, "c", nil},
		{int64(9), math.Copysign(0, -1), "c", nil}, // −0 equals +0
	}
	flat, err := FromRows("R", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := ShardRelation(flat, 3, ByHash("id"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, g *Gathered, want []Row) {
		t.Helper()
		if g.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", name, g.Len(), len(want))
		}
		vals, onScale, ok := g.FloatColumn("f")
		if !ok {
			t.Fatalf("%s: no float image for f", name)
		}
		if _, _, ok := g.FloatColumn("s"); ok {
			t.Fatalf("%s: a STRING column has no float image", name)
		}
		for k, row := range want {
			if id, _ := g.Tuple(k).Get("id"); id != row[0] {
				t.Fatalf("%s: slot %d holds row %v, want %v", name, k, id, row[0])
			}
			n, isNum := pref.Numeric(row[1])
			if onScale[k] != isNum || (isNum && vals[k] != n && !(math.IsNaN(n) && math.IsNaN(vals[k]))) {
				t.Fatalf("%s: slot %d float image (%v, %v) for value %v", name, k, vals[k], onScale[k], row[1])
			}
		}
		for ci, attr := range []string{"id", "f", "s", "at"} {
			codes, ok := g.EqColumn(attr)
			if !ok {
				t.Fatalf("%s: no equality codes for %s", name, attr)
			}
			for a := range want {
				if codes[a] < 1 || int(codes[a]) > len(want) {
					t.Fatalf("%s.%s: code %d of slot %d is not dense in 1..%d", name, attr, codes[a], a, len(want))
				}
				for b := range want {
					if a == b {
						continue
					}
					if got, eq := codes[a] == codes[b], pref.EqualValues(want[a][ci], want[b][ci]); got != eq {
						t.Fatalf("%s.%s: slots %d,%d (%v, %v): codes equal=%v, values equal=%v",
							name, attr, a, b, want[a][ci], want[b][ci], got, eq)
					}
				}
			}
		}
		if _, ok := g.EqColumn("nope"); ok {
			t.Fatalf("%s: codes for an unknown attribute", name)
		}
	}
	idx := []int{6, 0, 9, 3, 2, 4, 8, 5, 1}
	want := make([]Row, len(idx))
	for k, i := range idx {
		want[k] = rows[i]
	}
	check("one relation", flat.Gather(idx), want)

	sets := make([][]int, sharded.NumShards())
	var wantSharded []Row
	for i, sh := range sharded.Shards() {
		for local := sh.Len() - 1; local >= 0; local-- { // list order, not position order
			sets[i] = append(sets[i], local)
			wantSharded = append(wantSharded, sh.Row(local))
		}
	}
	check("across shards", sharded.Gather(sets), wantSharded)
	check("nothing", flat.Gather([]int{}), nil)
}

// TestGatherWorthwhile pins the subset rule's two sides.
func TestGatherWorthwhile(t *testing.T) {
	for _, c := range []struct {
		m, n int
		want bool
	}{{0, 1000, true}, {1, 1000, true}, {250, 1000, true}, {251, 1000, false}, {1000, 1000, false}, {1, 3, false}} {
		if got := GatherWorthwhile(c.m, c.n); got != c.want {
			t.Errorf("GatherWorthwhile(%d, %d) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

// TestTupleViews: resolved views answer like the plain row views, for
// the resolved attributes, other schema attributes and unknown names.
func TestTupleViews(t *testing.T) {
	schema := MustSchema(Column{Name: "a", Type: Int}, Column{Name: "b", Type: String})
	r := New("R", schema).MustInsert(Row{int64(7), "x"})
	view := schema.TupleViews([]string{"b", "ghost"}).Of(r.Row(0))
	for _, attr := range []string{"a", "b", "ghost", "other"} {
		gv, gok := view.Get(attr)
		wv, wok := r.Tuple(0).Get(attr)
		if gv != wv || gok != wok {
			t.Errorf("Get(%q) = (%v, %v), want (%v, %v)", attr, gv, gok, wv, wok)
		}
	}
}
