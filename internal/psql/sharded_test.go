package psql

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/workload"
)

// shardedCatalog returns two catalogs over the same generated car data:
// one flat, one sharded — the fixture every agreement test runs both
// sides of a statement against.
func shardedCatalog(t *testing.T, n, shards int, seed int64) (flat, sharded Catalog) {
	t.Helper()
	cars := workload.Cars(n, seed)
	s, err := relation.ShardRelation(cars, shards, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	return Catalog{"car": cars}, Catalog{"car": s}
}

// sortedOIDs extracts and sorts a result's oid column.
func sortedOIDs(t *testing.T, r *relation.Relation) []int64 {
	t.Helper()
	out := oids(t, r)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameOIDs(a, b []int64) bool {
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

// agreementQueries are the statement shapes of the pipeline — WHERE,
// PREFERRING (chain, keyed, grouped), CASCADE, BUT ONLY, SKYLINE OF,
// ranked TOP-k, ORDER BY — that every layout must answer alike.
var agreementQueries = []string{
	"SELECT oid FROM car WHERE price <= 40000",
	"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
	"SELECT oid FROM car WHERE mileage <= 80000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
	"SELECT oid FROM car PREFERRING color IN ('red') PRIOR TO LOWEST(price)",
	"SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color",
	"SELECT oid FROM car WHERE horsepower >= 80 PREFERRING LOWEST(price) GROUPING BY make, color",
	"SELECT oid FROM car PREFERRING LOWEST(price) CASCADE HIGHEST(horsepower)",
	"SELECT oid FROM car PREFERRING price AROUND 30000 BUT ONLY DISTANCE(price) <= 2000",
	"SELECT oid FROM car PREFERRING price AROUND 30000 CASCADE HIGHEST(horsepower) BUT ONLY DISTANCE(price) <= 2000",
	"SELECT oid FROM car PREFERRING price AROUND 30000 GROUPING BY color BUT ONLY DISTANCE(price) <= 2000",
	"SELECT oid FROM car WHERE mileage <= 90000 PREFERRING price AROUND 30000 BUT ONLY DISTANCE(price) <= 1000",
	"SELECT oid FROM car SKYLINE OF price MIN, horsepower MAX",
	"SELECT oid FROM car WHERE price <= 45000 SKYLINE OF price MIN, mileage MIN",
	"SELECT oid FROM car PREFERRING price AROUND 30000 TOP 7",
	"SELECT oid, price FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY price, oid",
}

// TestExecShardedAgreesWithFlat: every statement shape of the pipeline
// (agreementQueries) must return the same row set over a sharded catalog
// table as over the flat relation.
func TestExecShardedAgreesWithFlat(t *testing.T) {
	for _, shards := range []int{1, 3, 6} {
		flatCat, shardCat := shardedCatalog(t, 400, shards, 99)
		for _, query := range agreementQueries {
			want, err := Run(query, flatCat, Options{})
			if err != nil {
				t.Fatalf("flat %q: %v", query, err)
			}
			got, err := Run(query, shardCat, Options{})
			if err != nil {
				t.Fatalf("sharded %q: %v", query, err)
			}
			if !sameOIDs(sortedOIDs(t, got), sortedOIDs(t, want)) {
				t.Errorf("%d shards, %q: sharded %v != flat %v",
					shards, query, sortedOIDs(t, got), sortedOIDs(t, want))
			}
		}
	}
}

// TestExecShardedRankedAgreement: the ranked model must return the same
// score ranking (scores are a deterministic function of rows, so
// comparing the selected price values suffices on tie-free data).
func TestExecShardedRankedAgreement(t *testing.T) {
	flatCat, shardCat := shardedCatalog(t, 300, 4, 7)
	query := "SELECT price FROM car PREFERRING price AROUND 31000 TOP 5"
	want, err := Run(query, flatCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(query, shardCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != got.Len() {
		t.Fatalf("ranked: %d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Row(i)[0] != got.Row(i)[0] {
			t.Fatalf("ranked row %d: %v vs %v", i, got.Row(i), want.Row(i))
		}
	}
}

// TestExecStreamShardedAgreement: the sharded streaming path must yield
// the same row set as batch execution, progressively for chain products.
func TestExecStreamShardedAgreement(t *testing.T) {
	_, shardCat := shardedCatalog(t, 500, 4, 13)
	for _, query := range []string{
		"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
		"SELECT oid FROM car WHERE mileage <= 90000 SKYLINE OF price MIN, mileage MIN",
	} {
		batch, err := Run(query, shardCat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var streamed []int64
		n, err := RunStream(query, shardCat, Options{}, func(row relation.Row) bool {
			streamed = append(streamed, row[0].(int64))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(streamed) {
			t.Fatalf("emitted count %d != callback count %d", n, len(streamed))
		}
		sort.Slice(streamed, func(i, j int) bool { return streamed[i] < streamed[j] })
		if !sameOIDs(streamed, sortedOIDs(t, batch)) {
			t.Fatalf("%q: streamed %v != batch %v", query, streamed, sortedOIDs(t, batch))
		}
	}
}

// TestExecStreamShardedTopStopsEarly: TOP k bounds the sharded stream's
// emissions like the flat stream.
func TestExecStreamShardedTopStopsEarly(t *testing.T) {
	_, shardCat := shardedCatalog(t, 400, 4, 17)
	n, err := RunStream("SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) TOP 2",
		shardCat, Options{}, func(relation.Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n > 2 {
		t.Fatalf("TOP 2 stream emitted %d rows", n)
	}
}

// TestExecShardedCacheReuse is the acceptance criterion at the psql
// layer: a repeated sharded statement must be served by the result cache
// — every shard's local maxima come out of it and no shard binds again.
// Its WHERE-scoped form never reaches the cache and evaluates each time.
func TestExecShardedCacheReuse(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	_, shardCat := shardedCatalog(t, 600, 4, 23)
	s := shardCat["car"].(*relation.Sharded)
	whole := "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	first, err := Run(whole, shardCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g0 := engine.GatheredBinds()
	rh0, _, _ := resultcache.Stats()
	repeat, err := Run(whole, shardCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rh1, _, _ := resultcache.Stats()
	if engine.GatheredBinds() != g0 {
		t.Fatalf("repeat sharded query re-bound: gathered binds %d→%d", g0, engine.GatheredBinds())
	}
	if rh1 < rh0+uint64(s.NumShards()) {
		t.Fatalf("repeat must serve every shard's local maxima from the result cache: hits %d→%d", rh0, rh1)
	}
	if !sameOIDs(sortedOIDs(t, repeat), sortedOIDs(t, first)) {
		t.Fatal("cache-served repeat diverged")
	}
	scoped := "SELECT oid FROM car WHERE price <= 60000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	h0, m0, _ := resultcache.Stats()
	n0 := resultcache.Len()
	var answers [2][]int64
	for k := range answers {
		res, err := Run(scoped, shardCat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		answers[k] = sortedOIDs(t, res)
	}
	if h, m, _ := resultcache.Stats(); h != h0 || m != m0 || resultcache.Len() != n0 {
		t.Fatalf("a WHERE-scoped statement reached the result cache: hits %d→%d misses %d→%d entries %d→%d", h0, h, m0, m, n0, resultcache.Len())
	}
	if !sameOIDs(answers[0], answers[1]) || len(answers[0]) == 0 {
		t.Fatalf("WHERE-scoped repeat diverged: %v vs %v", answers[0], answers[1])
	}
}

// TestCatalogDropSharded: dropping a sharded table frees the cache
// entries of every shard with its shards; Replace frees the displaced
// table the same way. Nothing sweeps: a caller still holding the table
// keeps its entries.
func TestCatalogDropSharded(t *testing.T) {
	_, shardCat := shardedCatalog(t, 300, 3, 29)
	s := shardCat["car"].(*relation.Sharded)
	query := "SELECT oid FROM car PREFERRING LOWEST(price)"
	if _, err := Run(query, shardCat, Options{}); err != nil {
		t.Fatal(err)
	}
	p := pref.LOWEST("price")
	if n, ok := engine.ResultCachedShards(p, s, nil); !ok || n != s.NumShards() {
		t.Fatalf("execution must store local maxima on every shard: %d/%d", n, s.NumShards())
	}
	where := &CmpExpr{Attr: "price", Op: "<=", Value: int64(60000)}
	if _, ok := engine.ResultCachedShards(p, s, where); ok {
		t.Fatal("a WHERE-scoped step must report bypass")
	}
	shards := weakShards(s)
	if !shardCat.Drop("car") {
		t.Fatal("Drop must report the table existed")
	}
	if n, _ := engine.ResultCachedShards(p, s, nil); n != s.NumShards() {
		t.Fatalf("a caller holding the dropped table lost %d shards' entries", s.NumShards()-n)
	}
	s = nil
	collect()
	for i, sh := range shards {
		if sh.Value() != nil {
			t.Fatalf("shard %d and its cached entries outlived Drop", i)
		}
	}
	// Replace: installing a new table frees the displaced shards.
	flatCat, shardCat2 := shardedCatalog(t, 300, 3, 31)
	if _, err := Run(query, shardCat2, Options{}); err != nil {
		t.Fatal(err)
	}
	shards = weakShards(shardCat2["car"].(*relation.Sharded))
	shardCat2.Replace("car", flatCat["car"])
	collect()
	for i, sh := range shards {
		if sh.Value() != nil {
			t.Fatalf("shard %d and its cached entries outlived Replace", i)
		}
	}
}

// weakShards returns weak pointers to a table's shards, whose
// generations hold what is cached about them.
func weakShards(s *relation.Sharded) []weak.Pointer[relation.Relation] {
	var out []weak.Pointer[relation.Relation]
	for _, sh := range s.Shards() {
		out = append(out, weak.Make(sh))
	}
	return out
}

// TestExplainSharded: EXPLAIN over a sharded table must report the shard
// fan-out per phase — shards=N and the merge mode — the per-shard bind
// and cache status, and the inlined sharded plan.
func TestExplainSharded(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	_, shardCat := shardedCatalog(t, 2500, 4, 37)
	query := "SELECT oid FROM car WHERE price <= 60000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	text, err := ExplainQuery(query, shardCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merge := "flat" // the fold's comparator on a flat term: records, or
	if engine.AVX2Enabled() {
		merge = "blocks-avx2" // the two blocked sweeps
	}
	for _, want := range []string{
		"sharded: 4 shards by hash(oid)",
		"shards=4, merge=fold dominance=" + merge,
		"merge: " + merge + " fold over ≈",
		"of 2500 rows; shards=4]",
		"(bind: full over 2500 rows on 4/4 shards)",
		"result cache: bypass — WHERE-scoped, never cached",
		"sharded plan: shards=4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	// The WHERE-less form is cold on every shard; executed, the per-shard
	// result entries report hits and every shard binds as before — its
	// sorted walk over the anti-correlated LOWEST(price) ⊗
	// HIGHEST(horsepower) gives up past a quarter of each shard. The
	// WHERE-scoped statement still bypasses after its run.
	whole := "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	if text, err = ExplainQuery(whole, shardCat, Options{}); err != nil {
		t.Fatal(err)
	}
	if want := "result cache: cold on 4/4 shards"; !strings.Contains(text, want) {
		t.Errorf("EXPLAIN missing %q:\n%s", want, text)
	}
	for _, c := range []struct{ query, bind, result string }{
		{whole, "(bind: full over 2500 rows on 4/4 shards — sorted walk over price, horsepower gave up past 624 rows on 4/4 shards)", "result cache: hit on all shards"},
		{query, "(bind: full over 2500 rows on 4/4 shards)", "result cache: bypass — WHERE-scoped, never cached"},
	} {
		if _, err := Run(c.query, shardCat, Options{}); err != nil {
			t.Fatal(err)
		}
		if text, err = ExplainQuery(c.query, shardCat, Options{}); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{c.bind, c.result} {
			if !strings.Contains(text, want) {
				t.Errorf("warm EXPLAIN missing %q:\n%s", want, text)
			}
		}
	}
	// The ranked model and grouped phases carry shard facts too.
	text, err = ExplainQuery("SELECT oid FROM car PREFERRING price AROUND 30000 TOP 3", shardCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "merge=top-k heap") {
		t.Errorf("ranked EXPLAIN missing merge note:\n%s", text)
	}
	text, err = ExplainQuery("SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color", shardCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "shard-merge dictionary") {
		t.Errorf("grouped EXPLAIN missing dictionary note:\n%s", text)
	}
}

// TestShardedRankPackageAgreement cross-checks rank's sharded entry
// points against the flat ones on the psql fixture data (scores derive
// from row values, so equal multisets of picked prices suffice).
func TestShardedRankPackageAgreement(t *testing.T) {
	flatCat, shardCat := shardedCatalog(t, 400, 4, 41)
	flat := flatCat["car"].(*relation.Relation)
	s := shardCat["car"].(*relation.Sharded)
	p := pref.AROUND("price", 30000)
	want := rank.TopK(p, flat, 6)
	got, _, err := rank.TopKShardedCtx(context.Background(), p, s, 6, nil, relation.Robust{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Fatalf("rank %d: score %v, want %v", i, got[i].Score, want[i].Score)
		}
	}
}

// TestMain runs the package's suites with the use-after-release guard on:
// the slab of a gathered bind is scribbled over the moment it is released
// (see relation.PoisonReleasedSlabs).
func TestMain(m *testing.M) {
	relation.PoisonReleasedSlabs(true)
	os.Exit(m.Run())
}

// TestColdShapesConcurrentSessions: eight sessions fire first-seen
// statements of the three cold_skyline shapes at one sharded table at
// once — every one a gathered bind per shard and a cross-shard fold, all
// borrowing from the same slab pool — and each answer must be the
// interpreted oracle's. Under -race this is the check that no slab is
// ever lent to two statements.
func TestColdShapesConcurrentSessions(t *testing.T) {
	pts := workload.Numeric(6000, 4, workload.AntiCorrelated, 5)
	sharded, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"pts": sharded}
	shapes := []string{
		"SELECT * FROM pts WHERE d4 <= %.6f PREFERRING d1 AROUND %.6f AND d2 AROUND %.6f AND LOWEST(d3)",
		"SELECT * FROM pts WHERE d4 <= %.6f PREFERRING (d1 AROUND %.6f AND LOWEST(d2)) PRIOR TO LOWEST(d3)",
		"SELECT * FROM pts WHERE d4 <= %.6f PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND %.6f AND LOWEST(d2))",
	}
	rendered := func(r *relation.Relation) string {
		rows := make([]string, r.Len())
		for i := range rows {
			rows[i] = fmt.Sprint(r.Row(i))
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	const sessions, statements = 8, 12
	type stmt struct{ text, want string }
	work := make([][]stmt, sessions)
	rng := rand.New(rand.NewSource(8))
	for k := range work {
		for n := 0; n < statements; n++ {
			shape := shapes[rng.Intn(len(shapes))]
			args := []any{0.02 + 0.1*rng.Float64(), 0.2 + 0.6*rng.Float64()}
			if strings.Count(shape, "%") == 3 {
				args = append(args, 0.2+0.6*rng.Float64())
			}
			text := fmt.Sprintf(shape, args...)
			q, err := Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			p, err := q.Preferring.Build()
			if err != nil {
				t.Fatal(err)
			}
			cand := pts.Pick(filter.Compile(q.Where, pts).Indices())
			want := cand.Pick(engine.BMOIndicesMode(p, cand, engine.BNL, engine.EvalInterpreted))
			work[k] = append(work[k], stmt{text, rendered(want)})
		}
	}
	g0 := engine.GatheredBinds()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := range work {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			for _, st := range work[k] {
				got, err := Run(st.text, cat, Options{})
				if err != nil {
					t.Errorf("session %d: %s: %v", k, st.text, err)
					return
				}
				if text := rendered(got); text != st.want {
					t.Errorf("session %d: %s:\n got %s\nwant %s", k, st.text, text, st.want)
					return
				}
			}
		}(k)
	}
	close(start)
	wg.Wait()
	if got := engine.GatheredBinds() - g0; got < sessions*statements {
		t.Fatalf("test premise: the statements must bind gathered, saw %d gathered binds", got)
	}
}
