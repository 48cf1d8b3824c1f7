package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/engine/resultcache"
	"repro/internal/pref"
	"repro/internal/rank"
	"repro/internal/relation"
)

// The result entries and score vectors a statement caches live in the
// memo of the generation they describe, so they retire with it: a
// superseded generation, a displaced shard, a replaced or dropped table
// frees them once nothing pins it, and nothing sweeps. These tests hold
// weak pointers to the entries and check the collector takes them.

// lifetimeScorer is the RANK term whose score vectors the tests cache.
func lifetimeScorer(t *testing.T) pref.Scorer {
	t.Helper()
	s, err := pref.RankWeighted([]float64{1, 1}, pref.LOWEST("d1"), pref.LOWEST("d2"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// weakEntry returns a weak pointer to the result entry r's current
// generation holds for p.
func weakEntry(t *testing.T, r *relation.Relation, p pref.Preference) weak.Pointer[resultEntry] {
	t.Helper()
	term, _ := pref.CacheKey(p)
	v, ok := r.Memo().Peek(term)
	if !ok {
		t.Fatalf("setup: %s holds no result entry for %s", r.Name(), p)
	}
	return weak.Make(v.(*resultEntry))
}

// weakVector returns a weak pointer to the score vector r's current
// generation holds for s.
func weakVector(t *testing.T, r *relation.Relation, s pref.Scorer) weak.Pointer[float64] {
	t.Helper()
	term, _ := pref.CacheKey(s)
	v, ok := r.Memo().Peek("rank:" + term)
	if !ok || len(v.([]float64)) == 0 {
		t.Fatalf("setup: %s holds no score vector for %s", r.Name(), s)
	}
	return weak.Make(&v.([]float64)[0])
}

// derived holds weak pointers to one relation's cached entries.
type derived struct {
	entry weak.Pointer[resultEntry]
	vec   weak.Pointer[float64]
}

func weakDerived(t *testing.T, r *relation.Relation, p pref.Preference, s pref.Scorer) derived {
	t.Helper()
	return derived{weakEntry(t, r, p), weakVector(t, r, s)}
}

// live reports whether either entry survived three collections.
func (d derived) live() bool {
	for range 3 {
		runtime.GC()
	}
	return d.entry.Value() != nil || d.vec.Value() != nil
}

// TestSupersededGenerationFreesItsDerivedState: an Insert carries the
// result entry into its successor's memo and drops the score vector; the
// superseded generation's entry and vector are freed once no snapshot
// pins it.
func TestSupersededGenerationFreesItsDerivedState(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rel := cacheTestRelation(rand.New(rand.NewSource(7)), 100)
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	s := lifetimeScorer(t)
	if _, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil); err != nil {
		t.Fatal(err)
	}
	rank.TopK(s, rel, 3)
	old := weakDerived(t, rel, p, s)
	snap := rel.Snapshot()
	// A strict dominator of every row: the carried entry is a new one.
	rel.MustInsert(relation.Row{-1.0, 99.0, "a"})
	if st := ResultCacheState(p, rel, nil); st != "hit" {
		t.Fatalf("the successor must hold the carried entry: result cache %s", st)
	}
	if _, _, c := resultcache.Stats(); c != 1 {
		t.Fatalf("one insert over one entry carried %d entries", c)
	}
	if !old.live() {
		t.Fatal("the superseded generation's entries were freed while a snapshot pins it")
	}
	runtime.KeepAlive(snap)
	snap = nil
	if old.live() {
		t.Fatal("the superseded generation's result entry or score vector outlived it")
	}
	_, m0 := rank.ScoreCacheStats()
	rank.TopK(s, rel, 3)
	if _, m := rank.ScoreCacheStats(); m != m0+1 {
		t.Fatal("a score vector must not be carried across an Insert")
	}
}

// TestReshardFreesDisplacedShardCaches is the displaced-shard lifecycle:
// statements cache result maxima and score vectors on each shard's
// generation; Reshard then re-addresses every row into fresh shards, and
// the displaced shards' entries — in particular their stale per-shard
// maxima — are freed with the shards, whatever the caller does with the
// returned displaced list.
func TestReshardFreesDisplacedShardCaches(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rel := cacheTestRelation(rand.New(rand.NewSource(11)), 240)
	s, err := relation.ShardRelation(rel, 3, relation.ByHash("cat"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	sc := lifetimeScorer(t)
	if _, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, nil, nil, Robust{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rank.TopKShardedCtx(ctx, sc, s, 3, nil, Robust{}); err != nil {
		t.Fatal(err)
	}
	var displaced []derived
	for _, sh := range s.Shards() {
		displaced = append(displaced, weakDerived(t, sh, p, sc))
	}
	if _, err := s.Reshard(5, relation.ByHash("cat")); err != nil {
		t.Fatal(err)
	}
	for i, d := range displaced {
		if d.live() {
			t.Fatalf("displaced shard %d's cached entries outlived the Reshard", i)
		}
	}
	if n, _ := ResultCachedShards(p, s, nil); n != 0 {
		t.Fatalf("%d fresh shards start with a result entry", n)
	}
	// The resharded table answers fresh queries correctly: the keyed
	// path (cold on the new shards) agrees with an uncached evaluation.
	got, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, nil, nil, Robust{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BMOShardedOnFilteredCtxKeyed(ctx, p, s, Auto, nil, false, nil, Robust{})
	if err != nil {
		t.Fatal(err)
	}
	if gw, ww := got.GlobalIDs(s), want.GlobalIDs(s); !sameIndices(gw, ww) {
		t.Fatalf("post-reshard keyed result %v, want %v", gw, ww)
	}
}

// TestReplaceFreesShardCaches: a sharded table swapped out of a catalog
// keeps its shards' entries for a session still reading a snapshot of it,
// and frees them when that snapshot is dropped.
func TestReplaceFreesShardCaches(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rel := cacheTestRelation(rand.New(rand.NewSource(12)), 120)
	s, err := relation.ShardRelation(rel, 2, relation.ByHash("cat"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	sc := lifetimeScorer(t)
	pinned := s.Snapshot()
	if _, _, err := BMOShardedOnCtxKeyed(ctx, p, pinned, Auto, nil, nil, Robust{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rank.TopKShardedCtx(ctx, sc, pinned, 3, nil, Robust{}); err != nil {
		t.Fatal(err)
	}
	var entries []derived
	for _, sh := range s.Shards() {
		entries = append(entries, weakDerived(t, sh, p, sc))
	}
	rel, s = nil, nil // the catalog's Replace drops the table's last reference
	for i, d := range entries {
		if !d.live() {
			t.Fatalf("shard %d's entries were freed while a snapshot reads them", i)
		}
	}
	if n, _ := ResultCachedShards(p, pinned, nil); n != pinned.NumShards() {
		t.Fatalf("the pinned snapshot serves %d of %d shards", n, pinned.NumShards())
	}
	pinned = nil
	for i, d := range entries {
		if d.live() {
			t.Fatalf("shard %d's entries outlived the replaced table and its last snapshot", i)
		}
	}
}

// TestPersistResultSurvivesCheckpoint: an auto-checkpoint publishes a
// same-version generation over the new epoch, which takes its memo as it
// is: the cached whole-table maxima, carried up to the checkpointing
// insert, still answer the statement after it.
func TestPersistResultSurvivesCheckpoint(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{AutoCheckpoint: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src := cacheTestRelation(rand.New(rand.NewSource(13)), 5)
	rel, err := st.CreateTable("c", src.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range src.Rows() {
		if err := rel.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	if _, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 3; i++ { // the eighth tail row checkpoints
		if err := rel.Insert(relation.Row{float64(rng.Intn(6)), float64(rng.Intn(6)), "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if tail := st.Stats().Shards[0].TailRows; tail != 0 {
		t.Fatalf("test premise: the inserts did not checkpoint (%d tail rows)", tail)
	}
	h0, _, _ := resultcache.Stats()
	got, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, _ := resultcache.Stats(); h != h0+1 {
		t.Fatal("the checkpoint's generation lost the cached maxima")
	}
	want, err := oneShardBMO(ctx, p, rel, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(got, want) {
		t.Fatalf("served %v after the checkpoint, want %v", got, want)
	}
}
