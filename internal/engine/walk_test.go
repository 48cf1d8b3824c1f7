package engine

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

// hotAnchors are the served hot pool's statements: price AROUND a ⊗
// HIGHEST(horsepower) for its 64 anchors.
func hotAnchors() []pref.Preference {
	out := make([]pref.Preference, 64)
	for i := range out {
		out[i] = pref.Pareto(pref.AROUND("price", float64(12000+i*500)), pref.HIGHEST("horsepower"))
	}
	return out
}

// TestSortedWalkSequence holds every walk to the sort of the compiled
// score vector: over columns of edge values — NULL, NaN, ±Inf, ±0, INTs
// beyond 2^53 that share a float image, INT/FLOAT twins — a LOWEST,
// HIGHEST, AROUND or BETWEEN leaf's walk takes exactly the rows of the
// order's sorted part, each at the score pref.Compile gives it, in
// non-increasing score: the sorted scores of those rows, ties and ±0
// included, and tied reports exactly the next row's tie with the last.
func TestSortedWalkSequence(t *testing.T) {
	ints := append(slices.Clone(bindInts), int64(math.MaxInt64))
	flts := append(slices.Clone(bindFlts), 0.5)
	lits := append(slices.Clone(bindLits), math.Copysign(0, -1), 0.5, float64(1<<53)+2)
	rng := rand.New(rand.NewSource(37))
	walks := 0
	for trial := 0; trial < 200; trial++ {
		rel := relation.New("t", bindSchema)
		n := 1 + rng.Intn(60)
		for k := 0; k < n; k++ {
			rel.MustInsert(relation.Row{int64(k), ints[rng.Intn(len(ints))], flts[rng.Intn(len(flts))], nil, nil})
		}
		attr := []string{"i", "f"}[rng.Intn(2)]
		z := lits[rng.Intn(len(lits))]
		for _, leaf := range []pref.Preference{
			pref.LOWEST(attr), pref.HIGHEST(attr), pref.AROUND(attr, z),
			pref.MustBETWEEN(attr, z, z+float64(rng.Intn(4))),
		} {
			rel.ValueOrder(attr)
			vals, _, ord, _ := rel.ValueOrder(attr)
			if ord == nil {
				t.Fatalf("%s: no order on the second request", leaf)
			}
			c, ok := pref.Compile(leaf, rel)
			if !ok || c.Flat() == nil {
				t.Fatalf("%s: no flat shape", leaf)
			}
			score := c.Flat().Dims[0].Score
			leaves, _ := pref.ScaleLeaves(leaf)
			cur := newCursor(leaves[0], vals, ord)
			var got, want []float64
			var rows []int
			for {
				tied := cur.tied()
				row, ok := cur.next()
				if !ok {
					break
				}
				if s := score[row]; s != cur.last {
					t.Fatalf("%s over %v: row %d walked at %v, compiled score %v", leaf, vals, row, cur.last, s)
				}
				if len(got) > 0 && tied != (cur.last == got[len(got)-1]) {
					t.Fatalf("%s over %v: tied=%v before a step from %v to %v", leaf, vals, tied, got[len(got)-1], cur.last)
				}
				got, rows = append(got, cur.last), append(rows, row)
			}
			for _, i := range ord.Pos[:ord.Ordered] {
				want = append(want, score[i])
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(want)))
			if !slices.Equal(got, want) {
				t.Fatalf("%s over %v: walked scores %v, sorted compiled scores %v", leaf, vals, got, want)
			}
			slices.Sort(rows)
			wantRows := make([]int, 0, ord.Ordered)
			for _, i := range ord.Pos[:ord.Ordered] {
				wantRows = append(wantRows, int(i))
			}
			slices.Sort(wantRows)
			if !slices.Equal(rows, wantRows) {
				t.Fatalf("%s over %v: walked rows %v, ordered rows %v", leaf, vals, rows, wantRows)
			}
			walks++
		}
	}
	t.Logf("%d walks", walks)
}

// TestSortedWalkNonFiniteTarget: an AROUND or BETWEEN leaf with a NaN or
// infinite bound never walks, and requests no value order — a term over a
// fresh column leaves it unmarked — while the same term with a finite
// target does.
func TestSortedWalkNonFiniteTarget(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, leaf := range []pref.Preference{
		pref.AROUND("f", nan), pref.AROUND("f", inf), pref.AROUND("i", -inf),
		pref.MustBETWEEN("f", -inf, 3), pref.MustBETWEEN("i", 0, inf),
		pref.MustBETWEEN("f", nan, nan), // the constructor accepts it: NaN > NaN is false
	} {
		rel := relation.New("t", bindSchema)
		for k := 0; k < 40; k++ {
			rel.MustInsert(relation.Row{int64(k), int64(k), float64(k), nil, nil})
		}
		p := pref.Pareto(leaf, pref.LOWEST("k"))
		for run := 0; run < 3; run++ {
			if cand, w := walkShard(p, rel, rel.Len(), false); w.Outcome != WalkNone || cand != nil {
				t.Fatalf("%s: run %d walked (%v, %d candidates)", p, run, w.Outcome, len(cand))
			}
		}
		for _, attr := range []string{leaf.Attrs()[0], "k"} {
			if _, _, ord, _ := rel.ProbeValueOrder(attr); ord != nil {
				t.Fatalf("%s: the refused walk requested %s's order", p, attr)
			}
		}
		finite := pref.Pareto(pref.AROUND(leaf.Attrs()[0], 7), pref.LOWEST("k"))
		walkShard(finite, rel, rel.Len(), false)
		if _, w := walkShard(finite, rel, rel.Len(), false); w.Outcome != WalkPruned {
			t.Fatalf("%s: the second walk did not prune (%v)", finite, w.Outcome)
		}
	}
}

// TestSortedWalkRoute runs the served hot pool cold over Cars(20000), flat
// and on two hash shards: the first statement marks price and horsepower,
// the second builds their orders, and from then on each whole-shard
// evaluation walks them — a gathered bind per walked shard, none where
// the walk gives up past a quarter of the shard — and answers exactly the
// interpreted BNL oracle over every row.
func TestSortedWalkRoute(t *testing.T) {
	cars := workload.Cars(20000, 7)
	sharded, err := relation.ShardRelation(cars, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []struct {
		name string
		s    *relation.Sharded
	}{{"flat", relation.OneShard(workload.Cars(20000, 7))}, {"two hash shards", sharded}} {
		s := layout.s
		var walked, gaveUp, depth int
		for k, p := range hotAnchors() {
			pruned := 0
			for i, sh := range s.Shards() {
				_, w := ProbeWalk(p, sh)
				switch {
				case k == 0:
					if w.Outcome != WalkNoOrder {
						t.Fatalf("%s: %s: a fresh shard %d walks (%v)", layout.name, p, i, w.Outcome)
					}
				case w.Outcome == WalkPruned:
					walked++
					pruned++
				case w.Outcome == WalkGaveUp:
					gaveUp++
				default:
					t.Fatalf("%s: %s: shard %d has no walk after the first statement (%v)", layout.name, p, i, w.Outcome)
				}
			}
			g0 := GatheredBinds()
			got := shardedBMO(p, s, Auto, nil)
			if d := int(GatheredBinds() - g0); d != pruned {
				t.Fatalf("%s: %s: %d gathered binds, %d walked shards", layout.name, p, d, pruned)
			}
			if k > 0 {
				for _, sh := range s.Shards() {
					cand, _ := walkShard(p, sh, relation.GatherLimit(sh.Len()), false)
					depth += len(cand)
				}
			}
			if got, want := oidsOf(s.Row, got.GlobalIDs(s)), referenceOIDs(p, s, AllShardSets(s)); !sameInts(got, want) {
				t.Fatalf("%s: %s: walked maxima %v, oracle %v", layout.name, p, got, want)
			}
		}
		t.Logf("%s: %d walked shards (%.0f rows each on average), %d gave up", layout.name, walked, float64(depth)/float64(max(walked, 1)), gaveUp)
		if walked == 0 || gaveUp == 0 {
			t.Fatalf("%s: the pool must both walk and give up: %d walked, %d gave up", layout.name, walked, gaveUp)
		}
	}
}

// TestSortedWalkConcurrentStatements: four goroutines run the hot pool
// cold over one fresh table at once — marking, building and walking its
// value orders concurrently, sharing the walk's pooled scratch — and each
// answers every statement as the whole-table evaluation of a private copy
// does.
func TestSortedWalkConcurrentStatements(t *testing.T) {
	shared := relation.OneShard(workload.Cars(4000, 11))
	want := make([][]int, 64)
	for k, p := range hotAnchors() {
		want[k] = BMOIndicesMode(p, workload.Cars(4000, 11), BNL, EvalCompiled)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, p := range hotAnchors() {
				got, _, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, shared, Auto, nil, false, nil, Robust{})
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.GlobalIDs(shared), want[k]) {
					t.Errorf("%s: %v, the whole-table evaluation %v", p, got.GlobalIDs(shared), want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
