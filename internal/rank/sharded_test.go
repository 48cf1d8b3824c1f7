package rank

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// shardedScoreRel builds a flat relation plus its sharded twin.
func shardedScoreRel(rng *rand.Rand, n, shards int) (*relation.Relation, *relation.Sharded) {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Row{i, rng.Float64(), rng.Float64()})
	}
	s, err := relation.ShardRelation(r, shards, relation.ByHash("oid"))
	if err != nil {
		panic(err)
	}
	return r, s
}

// topKSharded is TopKShardedCtx under an uncancellable context and the
// strict policy, which cannot fail here.
func topKSharded(p pref.Scorer, s *relation.Sharded, k int, sets [][]int) []Result {
	out, _, err := TopKShardedCtx(context.Background(), p, s, k, sets, relation.Robust{})
	if err != nil {
		panic(err)
	}
	return out
}

// TestTopKShardedAgreement: the sharded top-k must return the same score
// ranking as the flat scan for every shard count, down to the row
// identity when scores are distinct (continuous random scores make ties
// measure-zero).
func TestTopKShardedAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := testRank()
	for _, shards := range []int{1, 2, 3, 5, 8} {
		flat, s := shardedScoreRel(rng, 400, shards)
		want := TopK(p, flat, 10)
		got := topKSharded(p, s, 10, nil)
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d results, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i].Score != want[i].Score {
				t.Fatalf("%d shards: rank %d score %v, want %v", shards, i, got[i].Score, want[i].Score)
			}
			if s.Row(got[i].Row)[0] != flat.Row(want[i].Row)[0] {
				t.Fatalf("%d shards: rank %d row oid %v, want %v",
					shards, i, s.Row(got[i].Row)[0], flat.Row(want[i].Row)[0])
			}
		}
	}
}

// TestTopKShardedOnSubset: per-shard candidate subsets rank like the
// matching flat subset.
func TestTopKShardedOnSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	flat, s := shardedScoreRel(rng, 300, 4)
	p := testRank()
	keep := func(row relation.Row) bool { return row[1].(float64) < 0.5 }
	var idx []int
	for i := 0; i < flat.Len(); i++ {
		if keep(flat.Row(i)) {
			idx = append(idx, i)
		}
	}
	sets := make([][]int, s.NumShards())
	for i := 0; i < s.NumShards(); i++ {
		sets[i] = []int{}
		for j := 0; j < s.Shard(i).Len(); j++ {
			if keep(s.Shard(i).Row(j)) {
				sets[i] = append(sets[i], j)
			}
		}
	}
	want := topKOn(p, flat, 7, idx)
	got := topKSharded(p, s, 7, sets)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score || s.Row(got[i].Row)[0] != flat.Row(want[i].Row)[0] {
			t.Fatalf("rank %d: got %v (oid %v), want %v (oid %v)",
				i, got[i], s.Row(got[i].Row)[0], want[i], flat.Row(want[i].Row)[0])
		}
	}
}

// TestSortedPermCacheReuseAndInvalidation is the satellite acceptance:
// repeated ThresholdTopK calls must be sort-free (permutation cache hit,
// no new miss) and a row mutation must strand the cached permutations.
func TestSortedPermCacheReuseAndInvalidation(t *testing.T) {
	ResetScoreCache()
	ResetPermCache()
	defer ResetScoreCache()
	defer ResetPermCache()
	rng := rand.New(rand.NewSource(31))
	r := scoreRel(rng, 500)
	p := testRank()
	first, _ := ThresholdTopK(p, r, 5)
	h0, m0 := PermCacheStats()
	if h0 != 0 || m0 != uint64(len(p.Parts())) {
		t.Fatalf("cold run: perm hits=%d misses=%d, want 0/%d", h0, m0, len(p.Parts()))
	}
	repeat, _ := ThresholdTopK(p, r, 5)
	h1, m1 := PermCacheStats()
	if m1 != m0 {
		t.Fatalf("repeat run must not re-sort: misses %d → %d", m0, m1)
	}
	if h1 != h0+uint64(len(p.Parts())) {
		t.Fatalf("repeat run must hit per feature: hits %d → %d", h0, h1)
	}
	for i := range first {
		if first[i] != repeat[i] {
			t.Fatalf("sort-free run diverged: %v vs %v", repeat, first)
		}
	}
	// A row mutation bumps the version: the stale permutations are
	// unreachable and the fresh sort sees the new row.
	r.MustInsert(relation.Row{100.0, 100.0})
	got, _ := ThresholdTopK(p, r, 1)
	if len(got) != 1 || got[0].Row != r.Len()-1 {
		t.Fatalf("stale permutation: inserted best row must win, got %v", got)
	}
	_, m2 := PermCacheStats()
	if m2 == m1 {
		t.Fatal("mutation must miss the permutation cache")
	}
}
