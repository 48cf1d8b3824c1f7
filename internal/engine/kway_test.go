package engine

import (
	"context"
	"sort"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// kwayRelation builds an (oid, d1, d2) relation from coordinate pairs.
func kwayRelation(coords [][2]float64) *relation.Relation {
	r := relation.New("K", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
	))
	for i, c := range coords {
		r.MustInsert(relation.Row{i, c[0], c[1]})
	}
	return r
}

func kwayTerm() pref.Preference {
	return pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
}

// kwayCollectOids drains the stream and maps the emitted global ids back
// to row oids, preserving emission order.
func kwayCollectOids(s *relation.Sharded, st *ShardedStream) []int {
	var out []int
	st.Each(func(gid int) bool {
		out = append(out, s.Row(gid)[0].(int))
		return true
	})
	return out
}

// TestKWayEmptyAndSingleShards: the merge must survive shards that hold
// no rows at all (their head never enters the heap) and degenerate to a
// plain walk over one shard — both agreeing exactly with the flat result.
func TestKWayEmptyAndSingleShards(t *testing.T) {
	flat := kwayRelation([][2]float64{{3, 1}, {1, 4}, {2, 2}, {5, 0}, {1, 1}, {4, 4}})
	want := oidSetFlat(flat, BMOIndices(kwayTerm(), flat, SFS))
	// Range bounds far above every d1 value: all rows land in shard 0,
	// shards 1..3 stay empty.
	empties, err := relation.ShardRelation(flat, 4, relation.ByRange("d1", 100, 200, 300))
	if err != nil {
		t.Fatal(err)
	}
	single, err := relation.ShardRelation(flat, 1, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*relation.Sharded{"empty-shards": empties, "single-shard": single} {
		st := EvalStreamShardedCtx(context.Background(), kwayTerm(), s, Auto, nil, Robust{})
		if !st.Progressive() {
			t.Fatalf("%s: chain product must stream progressively", name)
		}
		got := kwayCollectOids(s, st)
		sort.Ints(got)
		if !sameInts(got, want) {
			t.Fatalf("%s: stream %v, flat %v", name, got, want)
		}
	}
}

// TestKWayEmptyCandidateSets: per-shard candidate masks that empty out a
// shard (or everything) must exhaust heads without emitting.
func TestKWayEmptyCandidateSets(t *testing.T) {
	flat := kwayRelation([][2]float64{{3, 1}, {1, 4}, {2, 2}, {5, 0}})
	s, err := relation.ShardRelation(flat, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	none := make(ShardSets, s.NumShards())
	for i := range none {
		none[i] = []int{}
	}
	if got := EvalStreamShardedCtx(context.Background(), kwayTerm(), s, Auto, none, Robust{}).Collect(); len(got) != 0 {
		t.Fatalf("empty candidate sets emitted %v", got)
	}
	// One shard masked out entirely: result must equal the flat BMO over
	// the remaining shard's rows only.
	half := make(ShardSets, s.NumShards())
	half[0] = []int{}
	for i := 1; i < s.NumShards(); i++ {
		half[i] = nil // every row
	}
	var idx []int
	for i := 1; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		for j := 0; j < sh.Len(); j++ {
			idx = append(idx, sh.Row(j)[0].(int))
		}
	}
	keep := func(oid int) bool {
		for _, k := range idx {
			if k == oid {
				return true
			}
		}
		return false
	}
	var flatIdx []int
	for i := 0; i < flat.Len(); i++ {
		if keep(flat.Row(i)[0].(int)) {
			flatIdx = append(flatIdx, i)
		}
	}
	want := oidSetFlat(flat, BMOIndicesOn(kwayTerm(), flat, SFS, flatIdx))
	got := kwayCollectOids(s, EvalStreamShardedCtx(context.Background(), kwayTerm(), s, Auto, half, Robust{}))
	sort.Ints(got)
	if !sameInts(got, want) {
		t.Fatalf("masked shard: stream %v, want %v", got, want)
	}
}

// TestKWayDuplicateCoordsAcrossShards: rows with identical raw
// coordinates scattered over shards are mutually unranked — every copy
// must be emitted, and the merge must keep the documented tie order
// (ascending global id) so repeated streams are deterministic.
func TestKWayDuplicateCoordsAcrossShards(t *testing.T) {
	coords := make([][2]float64, 0, 9)
	for i := 0; i < 6; i++ {
		coords = append(coords, [2]float64{1, 5}) // the maximal key, 6 copies
	}
	coords = append(coords, [2]float64{2, 1}, [2]float64{3, 0}, [2]float64{2, 4})
	flat := kwayRelation(coords)
	s, err := relation.ShardRelation(flat, 3, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	st := EvalStreamShardedCtx(context.Background(), kwayTerm(), s, Auto, nil, Robust{})
	var gids []int
	st.Each(func(gid int) bool { gids = append(gids, gid); return true })
	var dupGids []int
	for _, gid := range gids {
		if oid := s.Row(gid)[0].(int); oid < 6 {
			dupGids = append(dupGids, gid)
		}
	}
	if len(dupGids) != 6 {
		t.Fatalf("expected all 6 duplicate-coordinate rows emitted, got %d (gids %v)", len(dupGids), gids)
	}
	// The duplicates share one key, so they must stream as one ascending-
	// gid run — the cross-shard tie order sorting the union produced.
	for i := 1; i < len(dupGids); i++ {
		if dupGids[i] <= dupGids[i-1] {
			t.Fatalf("tied keys out of gid order: %v", dupGids)
		}
	}
}

// TestKWayExhaustedHeadsMidStream: a range partition puts every best key
// in one small shard, so its head exhausts while others still hold
// candidates — the heap must shrink and keep emitting correctly.
func TestKWayExhaustedHeadsMidStream(t *testing.T) {
	var coords [][2]float64
	// Shard 0 (d1 < 2): three excellent rows, exhausts first.
	coords = append(coords, [2]float64{0, 9}, [2]float64{1, 8}, [2]float64{1, 7})
	// Shard 1 (2 ≤ d1 < 10): bulk rows, some maximal.
	for i := 0; i < 40; i++ {
		coords = append(coords, [2]float64{2 + float64(i%8), float64(i % 7)})
	}
	// Shard 2 (d1 ≥ 10): dominated tail.
	for i := 0; i < 20; i++ {
		coords = append(coords, [2]float64{10 + float64(i), 0})
	}
	flat := kwayRelation(coords)
	s, err := relation.ShardRelation(flat, 3, relation.ByRange("d1", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	want := oidSetFlat(flat, BMOIndices(kwayTerm(), flat, SFS))
	got := kwayCollectOids(s, EvalStreamShardedCtx(context.Background(), kwayTerm(), s, Auto, nil, Robust{}))
	sort.Ints(got)
	if !sameInts(got, want) {
		t.Fatalf("stream %v, flat %v", got, want)
	}
}

// TestKWayFirstResult pins the time-to-first-result contract: once each
// shard has sorted its visit order, the first emission of the k-way merge
// examines exactly one candidate.
func TestKWayFirstResult(t *testing.T) {
	coords := make([][2]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		x := float64(i % 997)
		coords = append(coords, [2]float64{x, 996 - x}) // anti-correlated
	}
	flat := kwayRelation(coords)
	s, err := relation.ShardRelation(flat, 4, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	st := EvalStreamShardedCtx(context.Background(), kwayTerm(), s, Auto, nil, Robust{})
	if _, ok := st.Next(); !ok {
		t.Fatal("stream emitted nothing")
	}
	if st.Consumed() != 1 {
		t.Fatalf("first emission consumed %d candidates, want 1", st.Consumed())
	}
}
