package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/boundcache"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// TestReshardSweepsDisplacedShardCaches is the displaced-shard cache
// lifecycle: queries populate the statistics, rank score and result
// caches against each shard's identity; Reshard then
// re-addresses every row into fresh shards. The displaced shards must
// leave no cache entries behind — in particular no stale per-shard BMO
// maxima — and the sweep must run inside Reshard itself, not depend on
// the caller processing the returned displaced list.
func TestReshardSweepsDisplacedShardCaches(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	rel := cacheTestRelation(rng, 240)
	s, err := relation.ShardRelation(rel, 3, relation.ByHash("cat"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	where := &filter.Cmp{Attr: "d1", Op: "<=", Value: 4.0}

	// Populate every cache class: keyed sharded BMO (result cache, one
	// entry per shard), plain and WHERE-scoped (compiled filter
	// selections), plus a rank preference (rank score/perm vectors).
	if _, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, nil, nil, Robust{}); err != nil {
		t.Fatal(err)
	}
	sets := make(ShardSets, s.NumShards())
	for i := range sets {
		sets[i] = filter.Compile(where, s.Shard(i)).Indices()
	}
	if _, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, sets, where, Robust{}); err != nil {
		t.Fatal(err)
	}
	EvalStreamShardedCtx(context.Background(), p, s, Auto, nil, Robust{}).Collect()

	displaced := s.Shards()
	for i, sh := range displaced {
		if resultcache.Len() == 0 {
			t.Fatal("setup failed: result cache is empty")
		}
		if e := resultcache.AtVersion(sh, sh.Version()); len(e) == 0 {
			t.Fatalf("setup failed: shard %d has no cached results", i)
		}
	}

	versions := make([]uint64, len(displaced))
	for i, sh := range displaced {
		versions[i] = sh.Version()
	}
	if _, err := s.Reshard(5, relation.ByHash("cat")); err != nil {
		t.Fatal(err)
	}

	for i, sh := range displaced {
		if e := resultcache.AtVersion(sh, versions[i]); len(e) != 0 {
			t.Fatalf("displaced shard %d still holds %d cached maxima after Reshard", i, len(e))
		}
		// The boundcache registry sweep (statistics, rank vectors) must
		// have run too: a second eviction finds nothing left to release.
		if n := EvictRelation(sh); n != 0 {
			t.Fatalf("displaced shard %d: %d bound-cache entries survived Reshard", i, n)
		}
	}

	// The resharded table answers fresh queries correctly: the keyed
	// path (cold against the new shard identities) agrees with an
	// uncached evaluation.
	got, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, nil, nil, Robust{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := BMOShardedOnFilteredCtxKeyed(ctx, p, s, Auto, nil, false, nil, Robust{})
	if err != nil {
		t.Fatal(err)
	}
	gw, ww := got.GlobalIDs(s), want.GlobalIDs(s)
	if !sameIndices(gw, ww) {
		t.Fatalf("post-reshard keyed result %v, want %v", gw, ww)
	}
}

// TestReplaceSweepsShardCaches pins the companion path: swapping a
// sharded table out of a catalog releases every shard's cached entries.
func TestReplaceSweepsShardCaches(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	rel := cacheTestRelation(rng, 120)
	s, err := relation.ShardRelation(rel, 2, relation.ByHash("cat"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	if _, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, nil, nil, Robust{}); err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.Shards() {
		if len(resultcache.AtVersion(sh, sh.Version())) == 0 {
			t.Fatalf("setup failed: shard %d has no cached results", i)
		}
	}
	// Catalog.Replace routes through engine.EvictSharded; exercise the
	// engine-side sweep directly to keep the test in-package.
	if n := EvictSharded(s); n == 0 {
		t.Fatal("EvictSharded found nothing despite populated caches")
	}
	for i, sh := range s.Shards() {
		if len(resultcache.AtVersion(sh, sh.Version())) != 0 {
			t.Fatalf("shard %d still holds cached maxima after Replace sweep", i)
		}
		if n := boundcache.EvictSource(sh); n != 0 {
			t.Fatalf("shard %d: %d bound entries survived", i, n)
		}
	}
}
