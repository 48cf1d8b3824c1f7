package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// The gathered bind and the gathered cross-shard merge against the
// interpreted reference: whatever the layout, the term and the
// selectivity, the candidate-proportional path must return exactly what
// BMOIndicesMode(…, BNL, EvalInterpreted) returns on the flattened table.

// gatheredTestRelation builds rows whose columns carry everything that
// can go wrong between a column image and a predicate: NULLs, NaN, ±Inf
// domain values (which tie NULL rows at an infinite score), −0, small
// domains (many equal values), int twins inside the FLOAT column x, an
// INT column big of values beyond 2^53 (neighbours share a float image,
// and pref.EqualValues — so every tie — calls them equal), a TIME column
// ts of instants half a second apart (tied on the score scale, not
// equal: the one linear column type that must keep equality codes), a
// FLOAT column q clamped at 0 like workload.Numeric clamps (most rows tie
// there), a discrete column, a uniform selector column w for drawing
// candidate sets of a chosen selectivity, and an INT column hp with no
// NULL (its values do not consume the generator), whose HIGHEST leaf
// binds to the column image itself.
func gatheredTestRelation(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "y", Type: relation.Int},
		relation.Column{Name: "z", Type: relation.Float},
		relation.Column{Name: "color", Type: relation.String},
		relation.Column{Name: "w", Type: relation.Int},
		relation.Column{Name: "big", Type: relation.Int},
		relation.Column{Name: "ts", Type: relation.Time},
		relation.Column{Name: "q", Type: relation.Float},
		relation.Column{Name: "hp", Type: relation.Int},
	))
	colors := []string{"red", "blue", "green", "gray"}
	for i := 0; i < n; i++ {
		var x, y, c, big, ts pref.Value
		switch u := rng.Intn(30); {
		case u == 0:
			x = math.NaN()
		case u == 1:
			x = math.Inf(1)
		case u == 2:
			x = math.Inf(-1)
		case u <= 4:
			// NULL
		case u <= 7:
			x = int64(rng.Intn(12)) // the int twin of a float below
		case u == 8:
			x = math.Copysign(0, -1) // −0 equals the 0 of either type
		default:
			x = float64(rng.Intn(12))
		}
		if rng.Intn(15) > 0 {
			y = int64(rng.Intn(12))
		}
		if rng.Intn(8) > 0 {
			c = colors[rng.Intn(len(colors))]
		}
		if rng.Intn(12) > 0 {
			big = int64(1-2*rng.Intn(2)) * (1<<53 + int64(rng.Intn(6)))
		}
		if rng.Intn(12) > 0 {
			ts = time.Unix(int64(1_000_000+rng.Intn(4)), int64(rng.Intn(2))*500_000_000).UTC()
		}
		q := math.Max(0, float64(rng.Intn(9)-5)/4)
		r.MustInsert(relation.Row{int64(i), x, y, rng.Float64(), c, int64(rng.Intn(1000)), big, ts, q, int64(40 + i*37%160)})
	}
	return r
}

// gatheredLeaf draws one base preference over the test columns.
func gatheredLeaf(rng *rand.Rand) pref.Preference {
	switch rng.Intn(14) {
	case 0:
		return pref.AROUND("x", float64(rng.Intn(12)))
	case 1:
		return pref.AROUND("y", float64(rng.Intn(12)))
	case 2:
		return pref.LOWEST("x")
	case 3:
		return pref.HIGHEST("y")
	case 4:
		return pref.LOWEST("z")
	case 5:
		return pref.POS("color", "red", "green")
	case 6:
		return pref.NEG("color", "blue")
	case 7:
		return pref.AROUND("big", float64(int64(1<<53+rng.Intn(6))))
	case 8:
		return pref.HIGHEST("big")
	case 9:
		return pref.LOWEST("ts")
	case 10:
		return pref.AROUND("q", float64(rng.Intn(3))/4)
	case 11:
		return pref.LOWEST("q")
	case 12:
		return pref.HIGHEST("hp")
	}
	p, err := pref.EXPLICIT("color", []pref.Edge{
		{Worse: "blue", Better: "red"},
		{Worse: "gray", Better: "blue"},
	})
	if err != nil {
		panic(err)
	}
	return p
}

// gatheredTerm draws a Pareto / PRIOR TO / nested accumulation.
func gatheredTerm(rng *rand.Rand) pref.Preference {
	a, b, c := gatheredLeaf(rng), gatheredLeaf(rng), gatheredLeaf(rng)
	switch rng.Intn(6) {
	case 0:
		return pref.Pareto(a, b)
	case 1:
		return pref.Prioritized(a, b)
	case 2:
		return pref.Pareto(pref.Prioritized(a, b), c)
	case 3:
		return pref.Prioritized(pref.Pareto(a, b), c)
	case 4:
		return pref.Prioritized(a, pref.Pareto(b, c))
	}
	return pref.Pareto(pref.Pareto(a, b), c)
}

// gatheredCuts are the candidate selectors of the agreement test, by the
// share of rows `w < cut` keeps: none, (about) one row, 1 %, 50 %, all.
var gatheredCuts = []int{-1, 0, 10, 500, 1000}

// selectOn returns the per-shard candidate positions of `w < cut`; the
// one-row case keeps a single candidate in total.
func selectOn(s *relation.Sharded, cut int) ShardSets {
	pred := &filter.Cmp{Attr: "w", Op: "<", Value: float64(cut)}
	if cut < 0 {
		pred = &filter.Cmp{Attr: "w", Op: "<", Value: -5.0}
	}
	sets := make(ShardSets, s.NumShards())
	kept := false
	for i, sh := range s.Shards() {
		sets[i] = slices.Clone(filter.CompileCached(pred, sh).Indices())
		if cut == 0 {
			// w < 0 selects nothing: keep exactly one row of the table.
			if !kept && sh.Len() > 0 {
				sets[i], kept = []int{sh.Len() / 2}, true
			}
		}
	}
	return sets
}

// oidsOf maps result positions to the rows' oids, sorted.
func oidsOf(rows func(i int) relation.Row, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = int(rows(i)[0].(int64))
	}
	slices.Sort(out)
	return out
}

// referenceOIDs is the oracle: interpreted BNL over the flattened
// candidate rows.
func referenceOIDs(p pref.Preference, s *relation.Sharded, sets ShardSets) []int {
	cand := s.Pick(sets.GlobalIDs(s))
	return oidsOf(cand.Row, BMOIndicesMode(p, cand, BNL, EvalInterpreted))
}

func gatheredLayouts(t *testing.T, rng *rand.Rand, flat *relation.Relation) map[string]*relation.Sharded {
	t.Helper()
	out := map[string]*relation.Sharded{}
	add := func(name string, n int, part relation.Partitioner) {
		s, err := relation.ShardRelation(flat, n, part)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = s
	}
	add("flat-as-1-shard", 1, relation.ByHash("oid"))
	add(fmt.Sprintf("hash-%d", 2+rng.Intn(3)), 2+rng.Intn(3), relation.ByHash("oid"))
	add("hash-8", 8, relation.ByHash("y"))
	k := 2 + rng.Intn(4)
	add(fmt.Sprintf("range-%d", k), k, relation.ByRange("z", relation.RangeBounds(flat, "z", k)...))
	// The paged store: column images come mmap'd from segment files, row
	// reads go through a buffer pool far smaller than the table.
	st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PageBytes: 1 << 10, PoolBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	mem, err := relation.ShardRelation(flat, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := st.ImportTable(mem)
	if err != nil {
		t.Fatal(err)
	}
	out["paged-2"] = tbl.(*relation.Sharded)
	return out
}

func TestGatheredBindAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	algs := []Algorithm{Auto, BNL, SFS}
	for trial := 0; trial < trials; trial++ {
		flat := gatheredTestRelation(rng, 300+rng.Intn(500))
		for name, s := range gatheredLayouts(t, rng, flat) {
			for round := 0; round < 3; round++ {
				p := gatheredTerm(rng)
				for _, cut := range gatheredCuts {
					sets := selectOn(s, cut)
					want := referenceOIDs(p, s, sets)
					alg := algs[rng.Intn(len(algs))]
					ResetCompileCache()
					tree0, flat0 := DominanceRuns(DominanceTree), fragmentRuns()
					got := shardedBMO(p, s, alg, sets)
					if oids := oidsOf(s.Row, got.GlobalIDs(s)); !sameInts(oids, want) {
						t.Fatalf("trial %d %s cut %d alg %s term %s:\n got %v\nwant %v", trial, name, cut, alg, p, oids, want)
					}
					// The comparator that ran is the one the term's shape
					// calls for, on the per-shard passes and the merge alike:
					// records or score blocks for the flat fragment, the tree
					// for everything else.
					tree, flat := DominanceRuns(DominanceTree)-tree0, fragmentRuns()-flat0
					if pref.FlatShaped(p) && tree != 0 || !pref.FlatShaped(p) && flat != 0 {
						t.Fatalf("trial %d %s cut %d alg %s term %s (in fragment: %v): %d tree passes, %d flat passes",
							trial, name, cut, alg, p, pref.FlatShaped(p), tree, flat)
					}
					if pref.FlatShaped(p) && sets.Total(s) > 0 && flat == 0 {
						t.Fatalf("trial %d %s cut %d alg %s term %s: the flat kernel never ran", trial, name, cut, alg, p)
					}
					// Both sides of the subset rule ran: a small candidate set
					// binds gathered (nothing cached), a large one binds the
					// whole shard through the cache.
					for i, sh := range s.Shards() {
						if len(sets[i]) == 0 {
							continue
						}
						small := relation.GatherWorthwhile(len(sets[i]), sh.Len())
						if cached := CompileCached(p, sh); cached == small {
							t.Fatalf("trial %d %s cut %d: shard %d candidates %d of %d: cached=%v, want %v",
								trial, name, cut, i, len(sets[i]), sh.Len(), cached, !small)
						}
					}
					// The flat entry point over one shard's candidates takes
					// the same two routes.
					sh := s.Shard(0)
					if len(sets[0]) > 0 {
						cand := sh.Pick(sets[0])
						wantFlat := oidsOf(cand.Row, BMOIndicesMode(p, cand, BNL, EvalInterpreted))
						if gotFlat := oidsOf(sh.Row, BMOIndicesOn(p, sh, alg, sets[0])); !sameInts(gotFlat, wantFlat) {
							t.Fatalf("trial %d %s cut %d alg %s term %s (flat):\n got %v\nwant %v", trial, name, cut, alg, p, gotFlat, wantFlat)
						}
					}
					// The sharded stream reaches the same set (last: it binds
					// whole shards through the cache).
					streamed := EvalStreamShardedCtx(context.Background(), p, s, alg, sets, Robust{}).Collect()
					slices.Sort(streamed)
					if oids := oidsOf(s.Row, streamed); !sameInts(oids, want) {
						t.Fatalf("trial %d %s cut %d alg %s term %s (stream):\n got %v\nwant %v", trial, name, cut, alg, p, oids, want)
					}
				}
			}
		}
	}
}

// TestGatheredMergeInfTies pins the cross-shard ±Inf hazard on a fixed
// instance: one shard's NULLs and another's +Inf domain values tie at a
// −Inf LOWEST score without being equal, so coordinate dominance would
// let a NULL row kill a +Inf row the Pareto predicate leaves unranked.
// Each shard alone is exact; only the merged bind sees both classes.
func TestGatheredMergeInfTies(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "z", Type: relation.Float},
	)
	s, err := relation.NewSharded("R", schema, 2, relation.ByRange("oid", 100))
	if err != nil {
		t.Fatal(err)
	}
	s.MustInsert(
		relation.Row{int64(1), nil, 1.0}, // shard 0: NULL x
		relation.Row{int64(2), nil, 3.0},
		relation.Row{int64(3), 5.0, 9.0},
		relation.Row{int64(101), math.Inf(1), 2.0}, // shard 1: +Inf x
		relation.Row{int64(102), math.Inf(1), 4.0},
		relation.Row{int64(103), 5.0, 8.0},
	)
	p := pref.Pareto(pref.LOWEST("x"), pref.LOWEST("z"))
	all := make(ShardSets, 2)
	for i := range all {
		all[i] = allIndices(s.Shard(i).Len())
	}
	want := referenceOIDs(p, s, all)
	for _, alg := range []Algorithm{Auto, SFS, BNL} {
		got := shardedBMO(p, s, alg, nil)
		if oids := oidsOf(s.Row, got.GlobalIDs(s)); !sameInts(oids, want) {
			t.Fatalf("alg %s: got %v want %v", alg, oids, want)
		}
	}
}

// TestGatheredBindNeverCaches: a gathered bind is its own outcome —
// neither a compile-cache hit nor a miss — and leaves nothing behind; a
// cached whole-relation form is used at any selectivity.
func TestGatheredBindNeverCaches(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(5))
	r := gatheredTestRelation(rng, 2000)
	p := pref.Pareto(pref.AROUND("x", 4), pref.LOWEST("z"))
	idx := filter.CompileCached(&filter.Cmp{Attr: "w", Op: "<", Value: 30.0}, r).Indices()
	if !relation.GatherWorthwhile(len(idx), r.Len()) {
		t.Fatalf("test premise: %d of %d candidates must be a small subset", len(idx), r.Len())
	}
	if got := BindScopeOf(p, r, len(idx)); got != BindGathered {
		t.Fatalf("scope before any bind = %s, want gathered", got)
	}
	want := BMOIndicesOn(p, r, Auto, idx)
	if h, m := CompileCacheStats(); h != 0 || m != 0 || GatheredBinds() != 1 || CompileCached(p, r) {
		t.Fatalf("gathered bind: hits=%d misses=%d gathered=%d cached=%v, want 0/0/1/false", h, m, GatheredBinds(), CompileCached(p, r))
	}
	// A whole-relation evaluation binds and caches the full form …
	BMOIndices(p, r, Auto)
	if got := BindScopeOf(p, r, len(idx)); got != BindCached {
		t.Fatalf("scope with a cached form = %s, want cached", got)
	}
	// … which the selective statement then reuses instead of gathering.
	got := BMOIndicesOn(p, r, Auto, idx)
	if h, _ := CompileCacheStats(); h != 1 || GatheredBinds() != 1 {
		t.Fatalf("cached form not reused: hits=%d gathered=%d", h, GatheredBinds())
	}
	if !sameInts(got, want) {
		t.Fatalf("cached and gathered evaluations disagree: %v vs %v", got, want)
	}
	// Candidates in arbitrary order still come back ascending.
	shuffled := slices.Clone(idx)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	ResetCompileCache()
	if got := BMOIndicesOn(p, r, SFS, shuffled); !sameInts(got, want) {
		t.Fatalf("shuffled candidates: got %v want %v", got, want)
	}
}

// TestGatheredBindSharesHighestImage: a HIGHEST leaf over a column with
// every row on scale (hp) binds to the column's float image itself — over
// the whole relation and over a borrowed gathered candidate set — while
// one over a NULL-bearing column (y) keeps a copy, −Inf at the NULL rows.
// Terms over both agree with the interpreted oracle whole and gathered,
// in this binary with released slabs poisoned (TestMain).
func TestGatheredBindSharesHighestImage(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	r := gatheredTestRelation(rand.New(rand.NewSource(31)), 2000)
	hp, y := pref.HIGHEST("hp"), pref.HIGHEST("y")
	var idx []int
	for i := 0; i < r.Len(); i += 17 {
		idx = append(idx, i)
	}
	g := r.Gather(idx).Borrow()
	for name, src := range map[string]pref.Source{"whole": r, "gathered": g} {
		fc := src.(pref.FloatColumner)
		img, _, _ := fc.FloatColumn("hp")
		if c, ok := pref.Compile(hp, src); !ok || &c.ScoreVec(hp)[0] != &img[0] {
			t.Fatalf("%s: HIGHEST(hp) copied an image whose every row is on scale", name)
		}
		yimg, yon, _ := fc.FloatColumn("y")
		c, ok := pref.Compile(y, src)
		if !ok || &c.ScoreVec(y)[0] == &yimg[0] {
			t.Fatalf("%s: HIGHEST(y) shared an image with NULL rows", name)
		}
		nulls := 0
		for i, s := range c.ScoreVec(y) {
			want := yimg[i]
			if !yon[i] {
				want, nulls = math.Inf(-1), nulls+1
			}
			if s != want {
				t.Fatalf("%s: HIGHEST(y) row %d scores %v, want %v", name, i, s, want)
			}
		}
		if nulls == 0 {
			t.Fatalf("%s: test premise: y has no NULL row", name)
		}
	}
	g.Release()

	whole, err := relation.ShardRelation(r, 1, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []pref.Preference{
		hp,
		pref.Pareto(hp, pref.AROUND("x", 4)),
		pref.Pareto(y, hp),
		pref.Prioritized(hp, pref.LOWEST("z")),
		pref.Prioritized(pref.POS("color", "red"), pref.Pareto(hp, pref.HIGHEST("big"))),
	} {
		for _, sets := range []ShardSets{{allIndices(r.Len())}, {idx}} {
			want := referenceOIDs(p, whole, sets)
			for _, alg := range []Algorithm{Auto, BNL, SFS} {
				got := shardedBMO(p, whole, alg, sets)
				if oids := oidsOf(whole.Row, got.GlobalIDs(whole)); !sameInts(oids, want) {
					t.Fatalf("%s alg %s over %d candidates:\n got %v\nwant %v", p, alg, len(sets[0]), oids, want)
				}
			}
		}
	}
}

// TestCacheHygieneOneShotStatements: a hot statement's whole-shard bound
// forms and its result-cache entries must survive a thousand distinct
// selective statements over the same table. Before the gathered bind, 128
// unique statements evicted every hot bound form.
func TestCacheHygieneOneShotStatements(t *testing.T) {
	ResetCompileCache()
	resultcache.Reset()
	filter.ResetCache()
	defer ResetCompileCache()
	defer resultcache.Reset()
	defer filter.ResetCache()
	rng := rand.New(rand.NewSource(9))
	flat := gatheredTestRelation(rng, 1500)
	s, err := relation.ShardRelation(flat, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hot := pref.Pareto(pref.AROUND("x", 6), pref.HIGHEST("y"))
	runHot := func() ShardSets {
		out, _, err := BMOShardedOnCtxKeyed(ctx, hot, s, Auto, nil, nil, Robust{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := runHot() // binds and stores
	runHot()         // served: the entries are now known to be reused
	if !compileCachedAllShards(hot, s) {
		t.Fatal("test premise: the hot term must hold a cached form per shard")
	}
	for i := 0; i < 1000; i++ {
		where := &filter.Cmp{Attr: "w", Op: "<", Value: float64(20 + i%60)}
		sets := make(ShardSets, s.NumShards())
		for k, sh := range s.Shards() {
			sets[k] = filter.CompileCached(where, sh).Indices()
		}
		p := pref.Pareto(pref.AROUND("x", float64(i)/100), pref.LOWEST("z"))
		if _, _, err := BMOShardedOnCtxKeyed(ctx, p, s, Auto, sets, where, Robust{}); err != nil {
			t.Fatal(err)
		}
	}
	if g := GatheredBinds(); g < 1000 {
		t.Fatalf("the selective statements must bind gathered: %d gathered binds", g)
	}
	if !compileCachedAllShards(hot, s) {
		t.Fatal("one-shot statements evicted the hot term's bound forms")
	}
	if n, ok := ResultCachedShards(hot, s, nil); !ok || n != s.NumShards() {
		t.Fatalf("one-shot statements evicted the hot term's result entries: %d/%d shards cached", n, s.NumShards())
	}
	_, m0 := CompileCacheStats()
	got := runHot()
	if _, m1 := CompileCacheStats(); m1 != m0 {
		t.Fatalf("hot statement re-bound after the flood: misses %d→%d", m0, m1)
	}
	if !sameInts(got.GlobalIDs(s), want.GlobalIDs(s)) {
		t.Fatal("hot statement's result changed")
	}
}

// TestGatheredCancelDeadContext: a context that dies right after the
// entry check must abort at the gather boundary — before any bind — with
// the context's error and no result.
func TestGatheredCancelDeadContext(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(3))
	r := gatheredTestRelation(rng, 4000)
	p := pref.Pareto(pref.AROUND("x", 4), pref.LOWEST("z"))
	idx := filter.CompileCached(&filter.Cmp{Attr: "w", Op: "<", Value: 200.0}, r).Indices()
	ctx := &dyingContext{Context: context.Background(), done: make(chan struct{})}
	close(ctx.done)
	got, err := oneShardBMO(ctx, p, r, Auto, idx)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("dead context: got %v, err %v; want nil, context.Canceled", got, err)
	}
	if g := GatheredBinds(); g != 0 {
		t.Fatalf("a dead context must abort before the bind, saw %d gathered binds", g)
	}
}

// dyingContext passes one liveness check (the entry check of
// runCancellable) and is cancelled from then on.
type dyingContext struct {
	context.Context
	done  chan struct{}
	polls int
}

func (c *dyingContext) Done() <-chan struct{} { return c.done }
func (c *dyingContext) Err() error {
	if c.polls++; c.polls == 1 {
		return nil
	}
	return context.Canceled
}

// TestGatheredCancelAgreement: cancelled at a random moment inside the
// gather, the bind, the key sort or the filter pass of a large subset,
// the evaluation yields the context's error or the complete result.
func TestGatheredCancelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := gatheredTestRelation(rng, 16000)
	idx := filter.CompileCached(&filter.Cmp{Attr: "w", Op: "<", Value: 240.0}, r).Indices()
	if !relation.GatherWorthwhile(len(idx), r.Len()) {
		t.Fatal("test premise: the subset must bind gathered")
	}
	for trial := 0; trial < 24; trial++ {
		p := gatheredTerm(rng)
		alg := []Algorithm{Auto, SFS, BNL}[rng.Intn(3)]
		ResetCompileCache()
		want := BMOIndicesOn(p, r, alg, idx)
		ResetCompileCache()
		ctx, cancel := ctxCancelledWithin(rng, 2*time.Millisecond)
		got, err := oneShardBMO(ctx, p, r, alg, idx)
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("trial %d: got %v err %v, want nil + context.Canceled", trial, got, err)
			}
			continue
		}
		if !sameInts(got, want) {
			t.Fatalf("trial %d: torn result under cancellation", trial)
		}
	}
	ResetCompileCache()
}

// TestExtendedRowsCachedCarriedAndRebound drives the keyed entry points —
// result-cache misses, hits and carries across inserts — flat and sharded
// over the extended edge rows, against the interpreted BNL oracle; and
// holds the whole-relation forms bound before and after each insert to
// one another on the rows both cover (the cache-soundness invariant: a
// tie operand references its generation's column image, so a superseded
// form must keep answering exactly like a fresh one over the old rows).
func TestExtendedRowsCachedCarriedAndRebound(t *testing.T) {
	freshResultCache(t)
	ResetCompileCache()
	defer ResetCompileCache()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 6; trial++ {
		flat := gatheredTestRelation(rng, 120+rng.Intn(120))
		extra := gatheredTestRelation(rng, 40)
		sharded, err := relation.ShardRelation(flat, 2+trial%3, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		terms := []pref.Preference{gatheredTerm(rng), gatheredTerm(rng), pref.Pareto(pref.LOWEST("x"), pref.HIGHEST("big"))}
		for step := 0; step < 10; step++ {
			p := terms[rng.Intn(len(terms))]
			var where filter.Pred
			var idx []int
			var sets ShardSets
			if rng.Intn(2) == 0 {
				where = &filter.Cmp{Attr: "w", Op: "<", Value: float64(100 + 300*rng.Intn(3))}
				idx = filter.CompileCached(where, flat).Indices()
				sets = make(ShardSets, sharded.NumShards())
				for i, sh := range sharded.Shards() {
					sets[i] = filter.CompileCached(where, sh).Indices()
				}
			}
			cand := flat
			if idx != nil {
				cand = flat.Pick(idx)
			}
			want := oidsOf(cand.Row, BMOIndicesMode(p, cand, BNL, EvalInterpreted))
			got, err := EvalIndicesCtxKeyed(ctx, p, flat, Auto, slices.Clone(idx), where)
			if err != nil {
				t.Fatal(err)
			}
			if oids := oidsOf(flat.Row, got); !sameInts(oids, want) {
				t.Fatalf("trial %d step %d flat %s (where=%v):\n got %v\nwant %v", trial, step, p, where != nil, oids, want)
			}
			gotSets, _, err := BMOShardedOnCtxKeyed(ctx, p, sharded, Auto, cloneSets(sets), where, Robust{})
			if err != nil {
				t.Fatal(err)
			}
			if oids := oidsOf(sharded.Row, gotSets.GlobalIDs(sharded)); !sameInts(oids, want) {
				t.Fatalf("trial %d step %d sharded %s (where=%v):\n got %v\nwant %v", trial, step, p, where != nil, oids, want)
			}
			before := compileFor(p, flat, EvalAuto)
			n := flat.Len()
			row := append(relation.Row(nil), extra.Row(step)...)
			row[0] = int64(10_000 + 100*trial + step)
			flat.MustInsert(row)
			if err := sharded.Insert(row); err != nil {
				t.Fatal(err)
			}
			after := compileFor(p, flat, EvalAuto)
			if before == nil || after == nil || before == after {
				t.Fatalf("trial %d step %d: an insert must strand the cached form (before=%p after=%p)", trial, step, before, after)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if before.Less(i, j) != after.Less(i, j) {
						t.Fatalf("trial %d step %d %s: forms bound before and after the insert disagree on rows %v / %v", trial, step, p, flat.Row(i), flat.Row(j))
					}
				}
			}
		}
	}
	if h, _, carried := resultcache.Stats(); h == 0 || carried == 0 {
		t.Fatalf("the run must exercise result-cache hits and carries: hits=%d carries=%d", h, carried)
	}
}

// opaqueTerm hides a term's constructor from pref.Compilable: the same
// order as a foreign preference, which only tuple views can evaluate.
type opaqueTerm struct{ pref.Preference }

// foldOracle returns what a merge of the given per-shard antichains must
// return — interpreted BNL over their union, as oids — and the bound on
// the pairs a fold may test: Σ|W|·|Lᵢ|, W being the maxima of the parts
// before Lᵢ.
func foldOracle(p pref.Preference, s *relation.Sharded, locals ShardSets) (oids []int, bound int) {
	prefix := make(ShardSets, len(locals))
	for i := range prefix {
		prefix[i] = []int{}
	}
	w := 0
	for i := range locals {
		bound += w * len(locals[i])
		prefix[i] = locals[i]
		oids = referenceOIDs(p, s, prefix)
		w = len(oids)
	}
	return oids, bound
}

// TestShardMergeFoldAgreement holds the cross-shard fold to the
// interpreted oracle on each of its comparators — the two blocked sweeps,
// flat records, the compiled tree (an EXPLICIT leaf), tuple views (an
// opaque term) — over 1
// to 8 parts in memory and paged, with empty and single-row parts,
// projection duplicates in different shards, string and TIME tie
// attributes whose per-shard codes are unrelated, and the NaN / ±Inf / −0
// / beyond-2^53 rows of the generator; and pins what makes it a fold of
// antichains: no pair inside one part is ever tested (the sweeps offer a
// store of one side's rows nothing but the other side's), and the pairs
// stay within Σ|W|·|Lᵢ|.
func TestShardMergeFoldAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	ran := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		flat := gatheredTestRelation(rng, 200+rng.Intn(400))
		for name, s := range gatheredLayouts(t, rng, flat) {
			for round := 0; round < 4; round++ {
				p := gatheredTerm(rng)
				if round == 3 {
					p = opaqueTerm{p}
				}
				for _, cut := range gatheredCuts {
					// Each shard's local maxima, by the oracle's own evaluator.
					locals := selectOn(s, cut)
					for i, sh := range s.Shards() {
						cand := sh.Pick(locals[i])
						local := BMOIndicesMode(p, cand, BNL, EvalInterpreted)
						for k, at := range local {
							local[k] = locals[i][at]
						}
						locals[i] = local
					}
					want, bound := foldOracle(p, s, locals)
					// Both kernel settings: a flat term folds in two blocked
					// sweeps with the AVX2 kernel on, three-way on records
					// without it.
					pairs := 0
					for _, avx2 := range []bool{AVX2Available(), false} {
						prev := SetAVX2Enabled(avx2)
						var got ShardSets
						got, pairs = mergeShardMaxima(p, s, cloneSets(locals), nil)
						mode := ShardMergeMode(p)
						SetAVX2Enabled(prev)
						if oids := oidsOf(s.Row, got.GlobalIDs(s)); !sameInts(oids, want) {
							t.Fatalf("trial %d %s cut %d term %s (%s):\n got %v\nwant %v", trial, name, cut, p, mode, oids, want)
						}
						if pairs > bound {
							t.Fatalf("trial %d %s cut %d term %s (%s): %d pairs tested, Σ|W|·|Lᵢ| = %d", trial, name, cut, p, mode, pairs, bound)
						}
						for i := range got {
							if !slices.IsSorted(got[i]) || got[i] == nil {
								t.Fatalf("trial %d %s: shard %d result %v must be ascending and non-nil", trial, name, i, got[i])
							}
						}
						ran[mode]++
					}

					// The same fold on a recording comparator: every pair it
					// asks about crosses a part boundary.
					var tuples []pref.Tuple
					var partOf []int
					for i := range locals {
						for _, local := range locals[i] {
							tuples = append(tuples, s.Shard(i).Tuple(local))
							partOf = append(partOf, i)
						}
					}
					f := antichainFold{less: func(i, j int) bool {
						if partOf[i] == partOf[j] {
							t.Fatalf("trial %d %s cut %d term %s: the fold tested slots %d and %d of part %d against each other", trial, name, cut, p, i, j, partOf[i])
						}
						return p.Less(tuples[i], tuples[j])
					}}
					lo := 0
					for i := range locals {
						f.add(lo, lo+len(locals[i]))
						lo += len(locals[i])
					}
					// (pairs: the three-way fold's, from the kernel-off run above.)
					if f.pairs != pairs {
						t.Fatalf("trial %d %s cut %d term %s: %d pairs on the recording comparator, %d on the three-way fold", trial, name, cut, p, f.pairs, pairs)
					}
					if len(f.rows) != len(want) {
						t.Fatalf("trial %d %s cut %d term %s: recording fold kept %d rows, want %d", trial, name, cut, p, len(f.rows), len(want))
					}
				}
			}
		}
	}
	modes := []string{"flat", "tree", "interpreted"}
	if AVX2Available() {
		modes = append(modes, "blocks-avx2")
	}
	for _, mode := range modes {
		if ran[mode] == 0 {
			t.Fatalf("the battery never folded on the %s comparator: %v", mode, ran)
		}
	}
}

// TestShardMergeKeepsCrossShardDuplicates: rows of equal projection are
// equal, not dominated — a duplicate of a maximum sitting in another
// shard is a maximum too, on every comparator, and a part beaten whole
// leaves nothing behind.
func TestShardMergeKeepsCrossShardDuplicates(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "x", Type: relation.Float},
		relation.Column{Name: "color", Type: relation.String},
	)
	s, err := relation.NewSharded("R", schema, 3, relation.ByRange("oid", 100, 200))
	if err != nil {
		t.Fatal(err)
	}
	s.MustInsert(
		relation.Row{int64(1), 1.0, "red"}, // shard 0
		relation.Row{int64(2), 0.0, "blue"},
		relation.Row{int64(101), 1.0, "red"}, // shard 1: the twin of oid 1, and of oid 2 up to −0
		relation.Row{int64(102), math.Copysign(0, -1), "blue"},
		relation.Row{int64(201), 2.0, "red"}, // shard 2: beaten whole
		relation.Row{int64(202), 1.0, "blue"},
	)
	explicit, err := pref.EXPLICIT("color", []pref.Edge{{Worse: "blue", Better: "red"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []pref.Preference{
		pref.Pareto(pref.LOWEST("x"), pref.POS("color", "red")),
		pref.Pareto(pref.LOWEST("x"), explicit),
		opaqueTerm{pref.Pareto(pref.LOWEST("x"), pref.POS("color", "red"))},
	} {
		// The flat term folds in two blocked sweeps with the AVX2 kernel
		// on, three-way on records without it.
		for _, avx2 := range []bool{AVX2Available(), false} {
			prev := SetAVX2Enabled(avx2)
			locals := ShardSets{{0, 1}, {0, 1}, {0, 1}}
			got, pairs := mergeShardMaxima(p, s, locals, nil)
			mode := ShardMergeMode(p)
			SetAVX2Enabled(prev)
			if oids := oidsOf(s.Row, got.GlobalIDs(s)); !sameInts(oids, []int{1, 2, 101, 102}) {
				t.Fatalf("%s (%s): got %v, want both twins of both maxima", p, mode, oids)
			}
			if pairs == 0 || pairs > 2*2+4*2 {
				t.Fatalf("%s (%s): %d pairs", p, mode, pairs)
			}
		}
	}
}
