package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/filter"
	"repro/internal/pref"
)

// peekOrder returns column ci's value order on r's current generation
// without requesting it (a request could build one).
func peekOrder(r *Relation, ci int) *filter.ValueOrder {
	if set := r.cur().orders.Load(); set != nil {
		return (*set)[ci]
	}
	return nil
}

// scanSelect is the linear scan a range selection must equal: the rows
// Pred.Eval accepts, in order.
func scanSelect(src pref.Source, p filter.Pred) []int {
	out := []int{}
	for i := 0; i < src.Len(); i++ {
		if p.Eval(src.Tuple(i)) {
			out = append(out, i)
		}
	}
	return out
}

// TestValueOrderBoundedUnderWrites interleaves Insert with range
// selections on one table, flat and sharded, and holds the value orders
// to their bounds: every selection equals the linear scan; a column's
// order is rebuilt only once the rows appended since it was built exceed
// an eighth of the rows it covers (so at most one build per ⅛ growth); and
// an order superseded by a rebuild is not pinned by the generations that
// replaced it — it is collected once no one holds its generation, while a
// pinned snapshot keeps it, and keeps selecting correctly through it.
func TestValueOrderBoundedUnderWrites(t *testing.T) {
	schema := MustSchema(Column{Name: "k", Type: Int}, Column{Name: "x", Type: Float})
	ci, _ := schema.Index("x")
	rng := rand.New(rand.NewSource(24))
	row := func(k int) Row {
		var x pref.Value = rng.Float64()
		switch rng.Intn(40) {
		case 0:
			x = nil
		case 1:
			x = math.NaN()
		}
		return Row{int64(k), x}
	}
	const initial, inserts = 1200, 3000
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			flat := New("T", schema)
			for k := 0; k < initial; k++ {
				flat.MustInsert(row(k))
			}
			s, err := ShardRelation(flat, shards, ByHash("k"))
			if err != nil {
				t.Fatal(err)
			}
			if shards == 1 {
				s = OneShard(flat)
			}
			last := make([]*filter.ValueOrder, shards) // newest order seen per shard
			builds := make([]int, shards)
			var superseded []weak.Pointer[filter.ValueOrder]
			var pinned *Relation // a snapshot held across a rebuild
			var pinnedOrder weak.Pointer[filter.ValueOrder]
			for k := initial; k < initial+inserts; k++ {
				if err := s.Insert(row(k)); err != nil {
					t.Fatal(err)
				}
				if k%7 != 0 {
					continue
				}
				lo := rng.Float64() * 0.9
				p := &filter.And{
					L: &filter.Cmp{Attr: "x", Op: ">=", Value: lo},
					R: &filter.Cmp{Attr: "x", Op: "<", Value: lo + 0.05},
				}
				for i, sh := range s.Shards() {
					if got, want := filter.Compile(p, sh).Indices(), scanSelect(sh, p); !slices.Equal(got, want) {
						t.Fatalf("shard %d after %d inserts, %s: selected %v, scan %v", i, k-initial, p, got, want)
					}
					o := peekOrder(sh, ci)
					if o == last[i] {
						continue
					}
					if prev := last[i]; prev != nil {
						if o.Covers-prev.Covers <= prev.Covers/orderTailFraction {
							t.Fatalf("shard %d: order over %d rows rebuilt at %d rows, before its tail passed an eighth", i, prev.Covers, o.Covers)
						}
						superseded = append(superseded, weak.Make(prev))
					}
					if o.Covers != sh.Len() {
						t.Fatalf("shard %d: a fresh order covers %d of %d rows", i, o.Covers, sh.Len())
					}
					last[i] = o
					builds[i]++
				}
				if pinned == nil && builds[0] == 1 && k%5 == 0 {
					// Pin shard 0's current generation, whose order a later
					// rebuild will supersede.
					pinned, pinnedOrder = s.Shard(0).Snapshot(), weak.Make(last[0])
				}
			}
			// At most one build per eighth of growth: a shard that grew from
			// about initial/shards rows to its final size fits at most
			// 1 + log(final/first)/log(9/8) builds.
			for i, sh := range s.Shards() {
				first := float64(initial) / float64(shards) / 2
				limit := 1 + int(math.Log(float64(sh.Len())/first)/math.Log(1+1.0/orderTailFraction)) + 1
				if builds[i] == 0 || builds[i] > limit {
					t.Errorf("shard %d: %d order builds over %d rows, want 1..%d", i, builds[i], sh.Len(), limit)
				}
			}
			t.Logf("order builds per shard %v, %d superseded", builds, len(superseded))
			if len(superseded) == 0 || pinned == nil {
				t.Fatalf("no order was superseded (builds %v) or none pinned", builds)
			}
			// The pinned snapshot still reads its generation's order — the
			// superseded one — and selects exactly its scan through it.
			p := &filter.Cmp{Attr: "x", Op: "<=", Value: 0.04}
			filter.Compile(p, pinned)
			cd := filter.Compile(p, pinned)
			if got, want := cd.Indices(), scanSelect(pinned, p); !slices.Equal(got, want) {
				t.Fatalf("pinned snapshot selected %v, scan %v", got, want)
			}
			if cd.Mode() != "ordered (driver "+p.String()+")" {
				t.Errorf("pinned snapshot's cut took %q, want its generation's order", cd.Mode())
			}
			collect := func() {
				for range 3 {
					runtime.GC()
				}
			}
			collect()
			if pinnedOrder.Value() == nil {
				t.Fatal("the pinned snapshot's order was collected while the snapshot is held")
			}
			for j, w := range superseded {
				if o := w.Value(); o != nil && w != pinnedOrder && !slices.Contains(last, o) {
					t.Errorf("superseded order %d (over %d rows) is still reachable", j, o.Covers)
				}
			}
			runtime.KeepAlive(pinned)
			pinned = nil
			collect()
			if pinnedOrder.Value() != nil {
				t.Error("a superseded order outlived the last snapshot of its generation")
			}
		})
	}
}
