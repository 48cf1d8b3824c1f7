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

// freshResultCache isolates a test from entries other tests left behind.
func freshResultCache(t testing.TB) {
	resultcache.Reset()
	resultcache.SetEnabled(true)
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
	if n := resultcache.Len(); n != 0 {
		t.Fatalf("a subset without WHERE stored %d entries", n)
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
				idx = filter.CompileCached(w, rel).Indices()
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

// TestEvictRelationSweepsResultCache pins the lifecycle satellite: the
// relation-drop sweep covers the result cache through the shared
// eviction registry.
func TestEvictRelationSweepsResultCache(t *testing.T) {
	freshResultCache(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	rel := cacheTestRelation(rng, 100)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	if _, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s := ResultCacheState(p, rel, nil); s != "hit" {
		t.Fatalf("state before eviction = %q, want hit", s)
	}
	EvictRelation(rel)
	if s := ResultCacheState(p, rel, nil); s != "cold" {
		t.Fatalf("state after EvictRelation = %q, want cold", s)
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
						sets[i] = filter.CompileCached(w, sh.Shard(i)).Indices()
					}
				}
				got, _, err := BMOShardedOnCtxKeyed(ctx, p, sh, Auto, cloneSets(sets), w, Robust{})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := BMOShardedOnFilteredCtxKeyed(ctx, p, sh, Auto, cloneSets(sets), nil, false, nil, Robust{})
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

// TestGatheredEntryOutlivesItsSlab: a result-cache entry built from a
// gathered evaluation holds copies, never views, of the borrowed bound
// form — the fused scores of a flat bind — and its maxima and chain
// coordinates still read true after the slab is released (poisoned, under
// this package's TestMain) and recycled by later statements, the entry
// serves, and it carries across an insert on exactly those coordinates —
// flat and per shard. The cold sharded statement folds on the records its
// shards carried (no part is bound again, and those records are released
// and poisoned before the next statement reuses them); the served one,
// whose shards evaluated nothing, binds each part's maxima for the fold.
func TestGatheredEntryOutlivesItsSlab(t *testing.T) {
	freshResultCache(t)
	ResetCompileCache()
	defer ResetCompileCache()
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
	dims, _ := chainDims(p)
	where := &filter.Cmp{Attr: "w", Op: "<", Value: 100.0}
	selected := func(r *relation.Relation) []int {
		return slices.Clone(filter.CompileCached(where, r).Indices())
	}
	checkEntry := func(what string, r *relation.Relation) {
		t.Helper()
		src, ver, term, ok := keysOf(p, where).resultKey(r)
		if !ok {
			t.Fatalf("%s: statement must be keyable", what)
		}
		e, hit := resultcache.Peek(src, ver, term)
		if !hit || len(e.Maxima) == 0 || len(e.Coords) != len(e.Maxima) {
			t.Fatalf("%s: want a stored entry with chain coordinates, got hit=%v %+v", what, hit, e)
		}
		for k, i := range e.Maxima {
			for d, s := range dims {
				if want := s.ScoreOf(r.Tuple(i)); e.Coords[k][d] != want {
					t.Fatalf("%s: maximum %d dim %d: stored coordinate %v, row scores %v", what, i, d, e.Coords[k][d], want)
				}
			}
		}
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
	g0, f0 := GatheredBinds(), foldBinds.Load()
	evalBoth("cold")
	if got := GatheredBinds() - g0; got != 3 {
		t.Fatalf("test premise: the flat run and both shards bind gathered, saw %d gathered binds", got)
	}
	if got := foldBinds.Load() - f0; got != 0 {
		t.Fatalf("the cold fold bound %d parts again instead of reading the carried records", got)
	}
	// Other one-shot statements recycle the slabs the entries were built over.
	for k := 0; k < 4; k++ {
		other := pref.Pareto(pref.AROUND("a", float64(k)/4), pref.HIGHEST("b"))
		BMOIndicesOn(other, flat, Auto, selected(flat))
		shardedBMO(other, sharded, Auto, nil)
	}
	checkEntry("flat", flat)
	for i, sh := range sharded.Shards() {
		checkEntry(fmt.Sprintf("shard %d", i), sh)
	}
	hits0, _, carried0 := resultcache.Stats()
	f0 = foldBinds.Load()
	evalBoth("served")
	if got := foldBinds.Load() - f0; got != uint64(sharded.NumShards()) {
		t.Fatalf("the served fold bound %d parts, want one per shard (%d): nothing was carried", got, sharded.NumShards())
	}
	// A newcomer that beats everything selected so far: the carry decides
	// on the stored coordinates.
	row := relation.Row{int64(10_000), -1.0, -1.0, int64(0)}
	flat.MustInsert(row)
	if err := sharded.Insert(row); err != nil {
		t.Fatal(err)
	}
	evalBoth("carried")
	if want := []int{10_000}; !sameInts(oracle(), want) {
		t.Fatalf("test premise: the newcomer dominates, oracle says %v", oracle())
	}
	if hits, _, carried := resultcache.Stats(); hits == hits0 || carried == carried0 {
		t.Fatalf("the run must serve and carry the gathered entries: hits %d→%d carries %d→%d", hits0, hits, carried0, carried)
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

// TestResultCacheDisabled: the kill switch bypasses serving, storing and
// the EXPLAIN probe without dropping correctness.
func TestResultCacheDisabled(t *testing.T) {
	freshResultCache(t)
	resultcache.SetEnabled(false)
	t.Cleanup(func() { resultcache.SetEnabled(true) })
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	rel := cacheTestRelation(rng, 100)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	want, err := oneShardBMO(ctx, p, rel, Auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := EvalIndicesCtxKeyed(ctx, p, rel, Auto, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIndices(got, want) {
			t.Fatalf("disabled-cache eval = %v, want %v", got, want)
		}
	}
	if s := ResultCacheState(p, rel, nil); s != "bypass" {
		t.Fatalf("disabled state = %q, want bypass", s)
	}
	if h, m, _ := resultcache.Stats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache must not count: hits=%d misses=%d", h, m)
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
			resultcache.Reset()
			defer resultcache.Reset()
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
