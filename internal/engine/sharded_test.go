package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

// shardedTestRelation builds an n-row relation with an oid identity
// column, two small-domain int dimensions (ties and duplicates), a
// nullable string category and a float dimension with occasional NaN —
// the value shapes every equality and dominance edge case runs through.
func shardedTestRelation(rng *rand.Rand, n, domain int) *relation.Relation {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "A1", Type: relation.Int},
		relation.Column{Name: "A2", Type: relation.Int},
		relation.Column{Name: "C", Type: relation.String},
		relation.Column{Name: "G", Type: relation.Float},
	))
	colors := []string{"red", "blue", "green"}
	for i := 0; i < n; i++ {
		var c pref.Value
		if rng.Intn(8) > 0 {
			c = colors[rng.Intn(len(colors))]
		}
		g := float64(rng.Intn(domain))
		if rng.Intn(20) == 0 {
			g = math.NaN()
		}
		r.MustInsert(relation.Row{i, int64(rng.Intn(domain)), int64(rng.Intn(domain)), c, g})
	}
	return r
}

// shardedRandomTerm widens randomTerm with the shapes the sharded merge
// must also cover: EXPLICIT better-than graphs (general partial orders,
// ordinal-coded per shard — codes must never leak across shards),
// quality-style BETWEEN scorers, and their accumulations.
func shardedRandomTerm(rng *rand.Rand, domain int) pref.Preference {
	switch rng.Intn(4) {
	case 0:
		p, err := pref.EXPLICIT("C", []pref.Edge{
			{Worse: "blue", Better: "red"},
			{Worse: "green", Better: "blue"},
		})
		if err != nil {
			panic(err)
		}
		if rng.Intn(2) == 0 {
			return p
		}
		return pref.Pareto(p, pref.LOWEST("A1"))
	case 1:
		lo := float64(rng.Intn(domain))
		p, err := pref.BETWEEN("A2", lo, lo+1)
		if err != nil {
			panic(err)
		}
		return p
	default:
		return randomTerm(rng, domain)
	}
}

// shardedTestPartitioner draws one of the partitioning modes.
func shardedTestPartitioner(rng *rand.Rand, flat *relation.Relation, shards int) relation.Partitioner {
	switch rng.Intn(3) {
	case 0:
		return relation.ByHash("C")
	case 1:
		return relation.ByHash("oid")
	default:
		bounds := relation.RangeBounds(flat, "A1", shards)
		return relation.ByRange("A1", bounds...)
	}
}

// oidSetFlat maps flat row indices to their oid values.
func oidSetFlat(r *relation.Relation, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = r.Row(i)[0].(int)
	}
	sort.Ints(out)
	return out
}

// oidSetSharded maps per-shard row positions to their oid values.
func oidSetSharded(s *relation.Sharded, sets ShardSets) []int {
	var out []int
	for i := range sets {
		for _, local := range sets[i] {
			out = append(out, s.Shard(i).Row(local)[0].(int))
		}
	}
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candSubset derives consistent flat and per-shard candidate sets from a
// hard selection A1 <= cutoff (cutoff < 0 means every row), exercising
// the WHERE-chained sharded pipeline at varying selectivities.
func candSubset(flat *relation.Relation, s *relation.Sharded, cutoff int64) ([]int, ShardSets) {
	keep := func(row relation.Row) bool {
		return cutoff < 0 || row[1].(int64) <= cutoff
	}
	var idx []int
	for i := 0; i < flat.Len(); i++ {
		if keep(flat.Row(i)) {
			idx = append(idx, i)
		}
	}
	sets := make(ShardSets, s.NumShards())
	for i := 0; i < s.NumShards(); i++ {
		sh := s.Shard(i)
		sets[i] = []int{}
		for j := 0; j < sh.Len(); j++ {
			if keep(sh.Row(j)) {
				sets[i] = append(sets[i], j)
			}
		}
	}
	return idx, sets
}

// TestShardedBMOAgreesWithFlat is the core partition-correctness
// property: sharded evaluation must return exactly the flat BMO result —
// across shard counts 1..8, hash and range partitioners, every
// algorithm, the representative term set (chains, keyed, EXPLICIT-style
// discrete, duals, rank) and WHERE selectivities from empty to full.
func TestShardedBMOAgreesWithFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	algs := []Algorithm{Auto, Naive, BNL, SFS, Decomposition}
	for trial := 0; trial < 120; trial++ {
		domain := 2 + rng.Intn(6)
		flat := shardedTestRelation(rng, 5+rng.Intn(120), domain)
		shards := 1 + rng.Intn(8)
		s, err := relation.ShardRelation(flat, shards, shardedTestPartitioner(rng, flat, shards))
		if err != nil {
			t.Fatal(err)
		}
		p := shardedRandomTerm(rng, domain)
		cutoff := int64(-1)
		if rng.Intn(2) == 0 {
			cutoff = int64(rng.Intn(domain + 1))
		}
		idx, sets := candSubset(flat, s, cutoff)
		alg := algs[rng.Intn(len(algs))]
		want := oidSetFlat(flat, BMOIndicesOn(p, flat, alg, idx))
		got := oidSetSharded(s, shardedBMO(p, s, alg, sets))
		if !sameInts(got, want) {
			t.Fatalf("trial %d: %s over %d shards (%s, alg %s, cutoff %d): got %v want %v",
				trial, p, shards, s.Part(), alg, cutoff, got, want)
		}
	}
}

// TestShardedGroupByAgreesWithFlat: the shard-merge group dictionary
// must reproduce the flat equality-code grouping — including NULL
// categories (one shared class) and NaN group values (each its own
// group, never unified across shards).
func TestShardedGroupByAgreesWithFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	groupings := [][]string{{"C"}, {"G"}, {"A1", "C"}, {"C", "G"}}
	for trial := 0; trial < 60; trial++ {
		domain := 2 + rng.Intn(5)
		flat := shardedTestRelation(rng, 5+rng.Intn(100), domain)
		shards := 1 + rng.Intn(8)
		s, err := relation.ShardRelation(flat, shards, shardedTestPartitioner(rng, flat, shards))
		if err != nil {
			t.Fatal(err)
		}
		p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
		attrs := groupings[rng.Intn(len(groupings))]
		cutoff := int64(-1)
		if rng.Intn(2) == 0 {
			cutoff = int64(rng.Intn(domain + 1))
		}
		idx, sets := candSubset(flat, s, cutoff)
		want := oidSetFlat(flat, oneShardGroupBy(p, attrs, flat, Auto, idx))
		grouped, err := GroupByShardedOn(context.Background(), p, attrs, s, Auto, sets)
		if err != nil {
			t.Fatal(err)
		}
		got := oidSetSharded(s, grouped)
		if !sameInts(got, want) {
			t.Fatalf("trial %d: groupby %v over %d shards (cutoff %d): got %v want %v",
				trial, attrs, shards, cutoff, got, want)
		}
	}
}

// TestShardedStreamAgreement: the sharded stream must emit exactly the
// sharded BMO result — progressively for compilable chain products
// (confirmed strictly by descending raw key, first result long before
// the full consumption), via batch fallback otherwise.
func TestShardedStreamAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		domain := 2 + rng.Intn(6)
		flat := shardedTestRelation(rng, 5+rng.Intn(150), domain)
		shards := 1 + rng.Intn(8)
		s, err := relation.ShardRelation(flat, shards, shardedTestPartitioner(rng, flat, shards))
		if err != nil {
			t.Fatal(err)
		}
		var p pref.Preference
		progressive := rng.Intn(2) == 0
		if progressive {
			p = pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
		} else {
			p = pref.Dual(pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2")))
		}
		st := EvalStreamShardedCtx(context.Background(), p, s, Auto, nil, Robust{})
		if st.Progressive() != progressive {
			t.Fatalf("trial %d: Progressive()=%v, want %v for %s", trial, st.Progressive(), progressive, p)
		}
		gids := st.Collect()
		var got []int
		for _, gid := range gids {
			got = append(got, s.Row(gid)[0].(int))
		}
		sort.Ints(got)
		want := oidSetSharded(s, shardedBMO(p, s, Auto, nil))
		if !sameInts(got, want) {
			t.Fatalf("trial %d: stream over %d shards for %s: got %v want %v", trial, shards, p, got, want)
		}
		if st.Consumed() == 0 && len(want) > 0 {
			t.Fatalf("trial %d: stream consumed nothing yet emitted %d rows", trial, len(want))
		}
	}
}

// TestShardedStreamFirstResultEarly: on an anti-correlated chain
// workload the first confirmed maximum must arrive after examining far
// fewer candidates than the table holds.
func TestShardedStreamFirstResultEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flat := relation.New("W", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
	))
	for i := 0; i < 4000; i++ {
		x := rng.Float64()
		flat.MustInsert(relation.Row{i, x, 1 - x + 0.05*rng.Float64()})
	}
	s, err := relation.ShardRelation(flat, 4, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	st := EvalStreamShardedCtx(context.Background(), p, s, Auto, nil, Robust{})
	if !st.Progressive() {
		t.Fatal("chain product over compiled shards must stream progressively")
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("stream must emit at least one maximum")
	}
	if st.Consumed() >= s.Len()/2 {
		t.Fatalf("first maximum consumed %d of %d candidates; expected early confirmation", st.Consumed(), s.Len())
	}
}

// TestShardedCompileCacheServed is the acceptance property: a repeated
// sharded query must be fully compile-cache served — every shard hits,
// no shard re-binds.
func TestShardedCompileCacheServed(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(5))
	flat := shardedTestRelation(rng, 600, 12)
	s, err := relation.ShardRelation(flat, 4, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	shardedBMO(p, s, SFS, nil)
	if !compileCachedAllShards(p, s) {
		t.Fatal("first execution must leave a cached bound form on every shard")
	}
	hits0, misses0 := CompileCacheStats()
	shardedBMO(p, s, SFS, nil)
	hits1, misses1 := CompileCacheStats()
	if misses1 != misses0 {
		t.Fatalf("repeat sharded query must not re-bind: misses %d → %d", misses0, misses1)
	}
	if hits1 < hits0+uint64(s.NumShards()) {
		t.Fatalf("repeat sharded query must hit per shard: hits %d → %d over %d shards", hits0, hits1, s.NumShards())
	}
	// Mutating ONE shard re-binds only that shard.
	if err := s.Shard(2).Insert(relation.Row{100001, int64(1), int64(1), "red", 1.0}); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := CompileCacheStats()
	shardedBMO(p, s, SFS, nil)
	_, missesAfter := CompileCacheStats()
	if missesAfter != missesBefore+1 {
		t.Fatalf("mutating one shard must re-bind exactly one shard: misses %d → %d", missesBefore, missesAfter)
	}
}

// TestShardedConcurrentInsertThenQuery: per-shard loaders insert
// concurrently (shards are independent storage, so loaders never
// contend), then concurrent readers evaluate sharded queries against
// the flat reference — the race detector guards the whole schedule.
func TestShardedConcurrentInsertThenQuery(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "A1", Type: relation.Int},
		relation.Column{Name: "A2", Type: relation.Int},
	)
	s, err := relation.NewSharded("R", schema, 4, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: one loader goroutine per shard, inserting rows that route
	// to its own shard (routing is deterministic, so loaders pre-filter).
	rows := make([]relation.Row, 2000)
	for i := range rows {
		rows[i] = relation.Row{i, int64(i % 17), int64((i * 7) % 13)}
	}
	var wg sync.WaitGroup
	for shard := 0; shard < s.NumShards(); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for _, row := range rows {
				if s.ShardOf(row) == shard {
					if err := s.Insert(row); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(shard)
	}
	wg.Wait()
	if s.Len() != len(rows) {
		t.Fatalf("concurrent load lost rows: %d of %d", s.Len(), len(rows))
	}
	// Phase 2: concurrent sharded queries agree with the flat reference.
	flat, err := relation.FromRows("R", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	want := oidSetFlat(flat, BMOIndices(p, flat, Naive))
	for q := 0; q < 8; q++ {
		wg.Add(1)
		go func(alg Algorithm) {
			defer wg.Done()
			got := oidSetSharded(s, shardedBMO(p, s, alg, nil))
			if !sameInts(got, want) {
				t.Errorf("concurrent sharded query (alg %s) disagrees: got %v want %v", alg, got, want)
			}
		}([]Algorithm{Auto, BNL, SFS, Naive}[q%4])
	}
	wg.Wait()
}

// TestEvictSharded: dropping a sharded table must release the bound
// forms of every shard.
func TestEvictSharded(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(9))
	flat := shardedTestRelation(rng, 300, 8)
	s, err := relation.ShardRelation(flat, 3, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))
	shardedBMO(p, s, SFS, nil)
	if !compileCachedAllShards(p, s) {
		t.Fatal("execution must cache a bound form per shard")
	}
	if n := EvictSharded(s); n < s.NumShards() {
		t.Fatalf("EvictSharded released %d entries, want ≥ %d", n, s.NumShards())
	}
	for i, sh := range s.Shards() {
		if CompileCached(p, sh) {
			t.Fatalf("shard %d still holds a cached bound form after EvictSharded", i)
		}
	}
}

// TestPlanSharded: the sharded planner must report the fan-out facts
// EXPLAIN surfaces — shard count, merge mode, the per-shard plan — and
// no route: a sharded table always evaluates shard-at-a-time.
func TestPlanSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	flat := shardedTestRelation(rng, 4000, 200)
	s, err := relation.ShardRelation(flat, 4, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	sp := PlanShardedOn(p, s, nil, Env{})
	if sp.Shards != 4 || sp.Input != flat.Len() {
		t.Fatalf("plan shards=%d input=%d", sp.Shards, sp.Input)
	}
	// One name for one comparator: the fold's two sweeps run on what a
	// sorted pass over the term runs on.
	merge := dominanceOf(p, SFS).String()
	if sp.Merge != merge || (merge != "flat" && merge != "blocks-avx2") {
		t.Fatalf("a flat-fragment term must fold on score blocks or flat records, got %s (sorted passes: %s)", sp.Merge, merge)
	}
	if sp.PerShard == nil || sp.PerShard.Algorithm == Auto {
		t.Fatalf("plan must resolve the per-shard algorithm, got %+v", sp.PerShard)
	}
	text := sp.Explain()
	if strings.Contains(text, "→ sharded") || strings.Contains(text, "→ flat") || strings.Contains(text, "flatten") {
		t.Fatalf("ShardPlan.Explain must not carry a sharded-vs-flat route:\n%s", text)
	}
	for _, want := range []string{"shards=4", "merge=fold dominance=" + merge, "merge: " + merge + " fold over ≈", "cross-shard pairs", "per-shard plan:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("ShardPlan.Explain missing %q:\n%s", want, text)
		}
	}
	if got := ShardMergeMode(pref.Dual(p)); got != "tree" {
		t.Fatalf("a compilable term outside the flat fragment folds on the predicate tree, got %s", got)
	}
	if got := ShardMergeMode(foreignEnginePref{}); got != "interpreted" {
		t.Fatalf("a term outside the compilable fragment must fold interpreted, got %s", got)
	}
}

// BenchmarkShardMerge prices the cross-shard fold alone: 2, 4 and 8 parts
// holding 16, 256 and 2048 local maxima between them (antichains cut from
// the shards' real local maxima over anti-correlated d=3, where most of
// them survive the merge — the expensive regime), in two blocked sweeps
// per part (the flat fragment with the AVX2 kernel on), three-way on flat
// records (the same term with it off) and on the predicate tree (the same
// order through a dual, which leaves the flat fragment). An iteration is
// one gathered bind of the union plus the fold; pairs/op is the fold's own
// count of cross-shard pairs tested, Σ|W|·|Lᵢ| at most.
func BenchmarkShardMerge(b *testing.B) {
	defer relation.PoisonReleasedSlabs(relation.PoisonReleasedSlabs(false))
	rel := workload.Numeric(64000, 3, workload.AntiCorrelated, 18)
	chain := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	terms := []struct {
		name string // the comparator: ShardMergeMode under the row's kernel setting
		avx2 bool
		p    pref.Preference
	}{
		{"blocks-avx2", true, chain},
		{"flat", false, chain},
		{"tree", false, pref.ParetoAll(pref.Dual(pref.HIGHEST("d1")), pref.LOWEST("d2"), pref.LOWEST("d3"))},
	}
	for _, parts := range []int{2, 4, 8} {
		s, err := relation.ShardRelation(rel, parts, relation.ByHash("d1"))
		if err != nil {
			b.Fatal(err)
		}
		locals := make(ShardSets, parts)
		for i, sh := range s.Shards() {
			locals[i] = BMOIndices(terms[0].p, sh, Auto)
		}
		for _, maxima := range []int{16, 256, 2048} {
			cut := make(ShardSets, parts)
			for i := range cut {
				if len(locals[i]) < maxima/parts {
					b.Fatalf("shard %d of %d has %d local maxima, the benchmark needs %d", i, parts, len(locals[i]), maxima/parts)
				}
				cut[i] = locals[i][:maxima/parts]
			}
			for _, term := range terms {
				b.Run(fmt.Sprintf("parts-%d/maxima-%d/%s", parts, maxima, term.name), func(b *testing.B) {
					if term.avx2 && !AVX2Available() {
						b.Skip("no AVX2 kernel in this build")
					}
					defer SetAVX2Enabled(SetAVX2Enabled(term.avx2))
					if got := ShardMergeMode(term.p); got != term.name {
						b.Fatalf("term folds on %s", got)
					}
					b.ReportAllocs()
					var out ShardSets
					var pairs int
					for i := 0; i < b.N; i++ {
						out, pairs = mergeShardMaxima(term.p, s, cut, nil)
					}
					b.ReportMetric(float64(pairs), "pairs/op")
					b.ReportMetric(float64(out.Total(s)), "maxima")
				})
			}
		}
	}
}
