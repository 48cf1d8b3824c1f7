package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// freshResultCache zeroes the result cache's counters for a test; its
// entries live on the relations it builds.
func freshResultCache(t testing.TB) {
	resultcache.Reset()
	t.Cleanup(resultcache.Reset)
}

// TestResultCacheServesRepeatQuery pins the serving lifecycle: the first
// keyed evaluation is a miss that stores, the repeat (including a
// re-built structurally identical term) is a hit returning the same
// maxima, and the unkeyed soft step never touches the cache.
func TestResultCacheServesRepeatQuery(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	rel := cacheTestRelation(rng, 300)
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))

	want, err := oneShardBMO(ctx, p, rel, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(got, want) {
		t.Fatalf("cold keyed eval = %v, want %v", got, want)
	}
	if h, m, _ := resultcache.Stats(); h != 0 || m != 1 {
		t.Fatalf("cold query: hits=%d misses=%d", h, m)
	}
	if s := ResultCacheState(p, rel, nil); s != "hit" {
		t.Fatalf("state after store = %q, want hit", s)
	}
	got, err = EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(got, want) {
		t.Fatalf("hit = %v, want %v", got, want)
	}
	if h, _, _ := resultcache.Stats(); h != 1 {
		t.Fatalf("repeat query must hit, hits=%d", h)
	}
	// A re-parsed query builds a fresh tree; the canonical key matches.
	rebuilt := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	if _, err := EvalIndicesCtxKeyed(ctx, rebuilt, rel, Auto, nil, nil); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := resultcache.Stats(); h != 2 {
		t.Fatalf("rebuilt term must hit, hits=%d", h)
	}
	// The unkeyed step stays honest: no hit, no store.
	if _, err := oneShardBMO(ctx, p, rel, Auto, nil); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := resultcache.Stats(); h != 2 || m != 1 {
		t.Fatalf("the unkeyed step must bypass the cache: hits=%d misses=%d", h, m)
	}
}

// TestSubsetWithoutWhereNeverPoisonsWholeKey: a keyed call over a
// candidate subset without a WHERE has no result key of its own — "*"
// means every row — so it evaluates uncached, and a later whole-relation
// keyed call is answered with the whole relation's maxima, not the
// subset's.
func TestSubsetWithoutWhereNeverPoisonsWholeKey(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	rel := cacheTestRelation(rng, 300)
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	want := BMOIndices(p, rel, Auto)
	// Every row but one whole-relation maximum: the subset's maxima differ.
	var subset []int
	for i := 0; i < rel.Len(); i++ {
		if i != want[0] {
			subset = append(subset, i)
		}
	}
	gotSub, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, subset, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantSub := BMOIndicesOn(p, rel, Auto, subset); !sameIndices(gotSub, wantSub) {
		t.Fatalf("subset keyed eval = %v, want %v", gotSub, wantSub)
	}
	if st := ResultCacheState(p, rel, nil); st != "cold" {
		t.Fatalf("a subset without WHERE stored an entry: result cache %s", st)
	}
	got, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(got, want) {
		t.Fatalf("whole-relation keyed eval after a subset call = %v, want %v", got, want)
	}
}

// TestResultCacheMaintenanceAgreement is the randomized soundness check
// for incremental maintenance: across interleaved appends and queries —
// chain-product terms (coordinate carry), discrete/prioritized terms
// (interpreted carry), with and without a WHERE scope — the cache-served
// maxima must always equal a fresh uncached evaluation. The final
// assertion pins that the runs actually exercised hits and carries, so
// agreement is not vacuous.
func TestResultCacheMaintenanceAgreement(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	terms := []pref.Preference{
		pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2")),
		pref.Prioritized(pref.POS("cat", "a"), pref.LOWEST("d1")),
		pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.NEG("cat", "b")),
	}
	where := &filter.Cmp{Attr: "d1", Op: "<=", Value: 3.0}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := cacheTestRelation(rng, 30+rng.Intn(80))
		for step := 0; step < 12; step++ {
			p := terms[rng.Intn(len(terms))]
			var w filter.Pred
			var idx []int
			if rng.Intn(2) == 0 {
				w = where
				idx = filter.Compile(w, rel).Indices()
			}
			got, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, slices.Clone(idx), w)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oneShardBMO(ctx, p, rel, Auto, slices.Clone(idx))
			if err != nil {
				t.Fatal(err)
			}
			if !sameIndices(got, want) {
				t.Fatalf("seed %d step %d: cached %s (where=%v) = %v, want %v",
					seed, step, p, w != nil, got, want)
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				rel.MustInsert(relation.Row{
					float64(rng.Intn(6)), float64(rng.Intn(6)),
					string(rune('a' + rng.Intn(3))),
				})
			}
		}
	}
	h, _, carried := resultcache.Stats()
	if h == 0 || carried == 0 {
		t.Fatalf("agreement run must exercise hits and carries: hits=%d carries=%d", h, carried)
	}
}

// TestSnapshotPinNeverObservesMaintainedResults pins the isolation
// contract: a session holding a pre-insert Snapshot keys its lookups by
// the pinned generation version, so maintenance carrying the live
// relation's results forward can never leak a later generation's answer
// into the pinned view.
func TestSnapshotPinNeverObservesMaintainedResults(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	rel := cacheTestRelation(rng, 200)
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))

	before, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := rel.Snapshot()
	// A strict dominator of every existing row: the live maxima collapse
	// to the newcomer while the snapshot's answer must stay put.
	rel.MustInsert(relation.Row{-1.0, 99.0, "a"})

	snapGot, err := EvalIndicesCtxKeyed(ctx, p, snap, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(snapGot, before) {
		t.Fatalf("pinned snapshot = %v, want pre-insert answer %v", snapGot, before)
	}
	snapFresh, err := oneShardBMO(ctx, p, snap, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(snapGot, snapFresh) {
		t.Fatalf("pinned snapshot cached=%v, fresh=%v", snapGot, snapFresh)
	}
	liveGot, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndices(liveGot, []int{200}) {
		t.Fatalf("live maxima after dominating insert = %v, want [200]", liveGot)
	}
	// The live answer must have been a maintained hit, not a recompute.
	if h, _, carried := resultcache.Stats(); h < 2 || carried == 0 {
		t.Fatalf("live answer must serve the carried entry: hits=%d carries=%d", h, carried)
	}
}

// TestShardedResultCacheAgreement compares the keyed sharded entry
// points against the uncached twins across shard counts 1..8, repeat
// queries (per-shard hits) and appends (per-shard maintenance), with
// and without a WHERE-scoped candidate set.
func TestShardedResultCacheAgreement(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
	where := &filter.Cmp{Attr: "d2", Op: "<=", Value: 4.0}
	for shards := 1; shards <= 8; shards++ {
		rng := rand.New(rand.NewSource(int64(100 + shards)))
		rel := cacheTestRelation(rng, 60+rng.Intn(60))
		sh, err := relation.ShardRelation(rel, shards, relation.ByHash("cat"))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			for _, useWhere := range []bool{false, true} {
				var w filter.Pred
				var sets ShardSets
				if useWhere {
					w = where
					sets = make(ShardSets, sh.NumShards())
					for i := range sets {
						sets[i] = filter.Compile(w, sh.Shard(i)).Indices()
					}
				}
				got, _, err := BMOShardedOnCtxKeyed(ctx, p, sh, Auto, cloneSets(sets), w, Robust{})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := BMOShardedOnFilteredCtxKeyed(ctx, p, sh, Auto, cloneSets(sets), false, nil, Robust{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !sameIndices(got[i], want[i]) {
						t.Fatalf("shards=%d round=%d where=%v shard %d: keyed %v, uncached %v",
							shards, round, useWhere, i, got[i], want[i])
					}
				}
			}
			for k := 0; k < 2; k++ {
				if err := sh.Insert(relation.Row{
					float64(rng.Intn(6)), float64(rng.Intn(6)),
					string(rune('a' + rng.Intn(3))),
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if h, _, _ := resultcache.Stats(); h == 0 {
		t.Fatalf("sharded agreement run must exercise hits, hits=0")
	}
}

// TestGatheredEntryOutlivesItsSlab: a gathered evaluation — a selective
// WHERE statement, flat and per shard — stores no result-cache entry and
// counts neither a hit nor a miss, so no entry is ever built over a
// borrowed slab. The cold sharded statement folds on the records its
// shards carried (no part is bound again); those records are copies, not
// views, of the slab, which is released (poisoned, under this package's
// TestMain) and recycled by later statements without a later answer going
// wrong, also across an insert. The same term without WHERE stores an
// entry per whole shard, and its served repeat, whose shards evaluated
// nothing, binds each part's maxima for the fold.
func TestGatheredEntryOutlivesItsSlab(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	flat := relation.New("R", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
		relation.Column{Name: "w", Type: relation.Int},
	))
	for i := 0; i < 4000; i++ {
		a := rng.Float64()
		flat.MustInsert(relation.Row{int64(i), a, 1 - a + rng.Float64()/10, int64(rng.Intn(1000))})
	}
	sharded, err := relation.ShardRelation(flat, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b"))
	where := &filter.Cmp{Attr: "w", Op: "<", Value: 100.0}
	selected := func(r *relation.Relation) []int {
		return filter.Compile(where, r).Indices()
	}
	oracle := func() []int {
		cand := flat.Pick(selected(flat))
		return oidsOf(cand.Row, BMOIndicesMode(p, cand, BNL, EvalInterpreted))
	}
	evalBoth := func(when string) {
		t.Helper()
		want := oracle()
		got, err := EvalIndicesCtxKeyed(ctx, p, flat, Auto, selected(flat), where)
		if err != nil {
			t.Fatal(err)
		}
		if oids := oidsOf(flat.Row, got); !sameInts(oids, want) {
			t.Fatalf("%s flat: got %v want %v", when, oids, want)
		}
		sets := make(ShardSets, sharded.NumShards())
		for i, sh := range sharded.Shards() {
			sets[i] = selected(sh)
		}
		gotSets, _, err := BMOShardedOnCtxKeyed(ctx, p, sharded, Auto, sets, where, Robust{})
		if err != nil {
			t.Fatal(err)
		}
		if oids := oidsOf(sharded.Row, gotSets.GlobalIDs(sharded)); !sameInts(oids, want) {
			t.Fatalf("%s sharded: got %v want %v", when, oids, want)
		}
	}
	storesNothing := func(when string) {
		t.Helper()
		n, _ := ResultCachedShards(p, sharded, nil)
		if h, m, c := resultcache.Stats(); h != 0 || m != 0 || c != 0 || n != 0 || ResultCacheState(p, flat, nil) != "cold" {
			t.Fatalf("%s: a gathered evaluation reached the result cache: hits %d misses %d carries %d, %d shard entries", when, h, m, c, n)
		}
	}
	for _, when := range []string{"cold", "again"} {
		g0, f0 := GatheredBinds(), foldBinds.Load()
		evalBoth(when)
		if got := GatheredBinds() - g0; got != 3 {
			t.Fatalf("test premise: the flat run and both shards bind gathered, saw %d gathered binds", got)
		}
		if got := foldBinds.Load() - f0; got != 0 {
			t.Fatalf("the %s fold bound %d parts again instead of reading the carried records", when, got)
		}
		storesNothing(when)
		// Other one-shot statements recycle the slabs the records were
		// copied out of.
		for k := 0; k < 4; k++ {
			other := pref.Pareto(pref.AROUND("a", float64(k)/4), pref.HIGHEST("b"))
			BMOIndicesOn(other, flat, Auto, selected(flat))
			shardedBMO(other, sharded, Auto, nil)
		}
	}
	// A newcomer that beats everything selected so far.
	row := relation.Row{int64(10_000), -1.0, -1.0, int64(0)}
	flat.MustInsert(row)
	if err := sharded.Insert(row); err != nil {
		t.Fatal(err)
	}
	evalBoth("after insert")
	if want := []int{10_000}; !sameInts(oracle(), want) {
		t.Fatalf("test premise: the newcomer dominates, oracle says %v", oracle())
	}
	storesNothing("after insert")
	// Without WHERE every shard stores, and the served repeat binds each
	// part for the fold: nothing carried records for it.
	for _, when := range []string{"cold", "served"} {
		f0 := foldBinds.Load()
		got, _, err := BMOShardedOnCtxKeyed(ctx, p, sharded, Auto, nil, nil, Robust{})
		if err != nil {
			t.Fatal(err)
		}
		want := oidsOf(flat.Row, BMOIndicesMode(p, flat, BNL, EvalInterpreted))
		if oids := oidsOf(sharded.Row, got.GlobalIDs(sharded)); !sameInts(oids, want) {
			t.Fatalf("whole %s: got %v want %v", when, oids, want)
		}
		wantBinds := uint64(0)
		if when == "served" {
			wantBinds = uint64(sharded.NumShards())
		}
		if got := foldBinds.Load() - f0; got != wantBinds {
			t.Fatalf("the whole %s fold bound %d parts, want %d", when, got, wantBinds)
		}
	}
	n, _ := ResultCachedShards(p, sharded, nil)
	if h, _, _ := resultcache.Stats(); h != uint64(sharded.NumShards()) || n != sharded.NumShards() {
		t.Fatalf("the WHERE-less term must store and serve one entry per shard: hits %d, %d shard entries", h, n)
	}
}

// cloneSets deep-copies a ShardSets so both evaluation paths receive
// private candidate slices.
func cloneSets(sets ShardSets) ShardSets {
	if sets == nil {
		return nil
	}
	out := make(ShardSets, len(sets))
	for i, s := range sets {
		out[i] = slices.Clone(s)
	}
	return out
}

// TestDeadContextRefusesResultHit: a cancelled query errors even when
// the answer is one lookup away.
func TestDeadContextRefusesResultHit(t *testing.T) {
	freshResultCache(t)
	rng := rand.New(rand.NewSource(3))
	rel := cacheTestRelation(rng, 100)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	if _, err := EvalIndicesCtxKeyed(context.Background(), p, rel, Auto, nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil); err == nil {
		t.Fatal("cancelled context must refuse the cached answer")
	}
}

// BenchmarkIncrementalInsert measures the write-side cost of maintenance:
// one warm cached result, b.N dominated appends. The per-insert cost must
// scale with |maxima| (a handful of dominance tests), not with the row
// count n — the sub-benchmarks sweep n two orders of magnitude to expose
// any accidental O(n) recompute on the write path.
func BenchmarkIncrementalInsert(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			rel := relation.New("B", relation.MustSchema(
				relation.Column{Name: "d1", Type: relation.Float},
				relation.Column{Name: "d2", Type: relation.Float},
			))
			for i := 0; i < n; i++ {
				rel.MustInsert(relation.Row{rng.Float64() * 1e6, rng.Float64() * 1e6})
			}
			p := pref.Pareto(pref.LOWEST("d1"), pref.HIGHEST("d2"))
			if _, err := EvalIndicesCtxKeyed(context.Background(), p, rel, Auto, nil, nil); err != nil {
				b.Fatal(err)
			}
			dominated := relation.Row{2e6, -1.0} // worse than every row on both dims
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.MustInsert(dominated)
			}
		})
	}
}
