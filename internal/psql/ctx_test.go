package psql

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/faultinject"
	"repro/internal/filter"
	"repro/internal/rank"
	"repro/internal/relation"
)

// ctxFixture builds a small sharded catalog for the serving-layer
// fault tests: hotels spread over shards by hash.
func ctxFixture(t *testing.T, shards int) (Catalog, *relation.Sharded) {
	t.Helper()
	flat := relation.New("hotels", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "dist", Type: relation.Int},
	))
	for i := 0; i < 64; i++ {
		flat.MustInsert(relation.Row{i, int64(10 + (i*7)%50), int64((i * 13) % 40)})
	}
	s, err := relation.ShardRelation(flat, shards, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faultinject.RemoveAll(s) })
	return Catalog{"hotels": s}, s
}

const ctxQuery = "SELECT oid FROM hotels PREFERRING LOWEST(price) AND LOWEST(dist)"

func TestExecCtxPartialResult(t *testing.T) {
	cat, s := ctxFixture(t, 4)
	faultinject.Install(s, 1, faultinject.Fault{Mode: faultinject.Panic})
	opts := Options{Robust: engine.Robust{Policy: engine.PolicyPartial}}
	res, err := RunCtx(context.Background(), ctxQuery, cat, opts)
	if err != nil {
		t.Fatalf("partial policy failed the query: %v", err)
	}
	if res.Partial == nil || len(res.Partial.Missing) != 1 || res.Partial.Missing[0] != 1 {
		t.Fatalf("partial = %+v, want shard 1 missing", res.Partial)
	}
	if res.Rel.Len() == 0 {
		t.Fatal("partial result dropped every row")
	}
	// The same query under the strict default fails with the shard error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunCtx(ctx, ctxQuery, cat, Options{})
	var se *relation.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("strict err = %v, want *ShardError for shard 1", err)
	}
}

func TestExecCtxTimeout(t *testing.T) {
	cat, s := ctxFixture(t, 4)
	faultinject.Install(s, 2, faultinject.Fault{Mode: faultinject.Hang})
	start := time.Now()
	_, err := RunCtx(context.Background(), ctxQuery, cat, Options{Timeout: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the query: %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded in chain", err)
	}
	// With PolicyPartial and a per-shard deadline the same hang degrades
	// instead of failing.
	opts := Options{
		Timeout: 2 * time.Second,
		Robust:  engine.Robust{Policy: engine.PolicyPartial, ShardTimeout: 40 * time.Millisecond},
	}
	res, err := RunCtx(context.Background(), ctxQuery, cat, opts)
	if err != nil {
		t.Fatalf("partial policy failed: %v", err)
	}
	if res.Partial == nil || len(res.Partial.Missing) != 1 || res.Partial.Missing[0] != 2 {
		t.Fatalf("partial = %+v, want shard 2 missing", res.Partial)
	}
}

func TestExecCtxCancelled(t *testing.T) {
	cat, _ := ctxFixture(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, ctxQuery, cat, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecCtxAgreesWithLegacy(t *testing.T) {
	cat, _ := ctxFixture(t, 3)
	queries := []string{
		ctxQuery,
		"SELECT oid FROM hotels WHERE price < 40 PREFERRING LOWEST(price) AND LOWEST(dist)",
		"SELECT oid FROM hotels PREFERRING LOWEST(price) CASCADE LOWEST(dist)",
	}
	for _, query := range queries {
		legacy, err := Run(query, cat, Options{})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		res, err := RunCtx(context.Background(), query, cat, Options{Timeout: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if res.Partial != nil {
			t.Fatalf("%s: healthy query reported a partial", query)
		}
		if legacy.Len() != res.Rel.Len() {
			t.Fatalf("%s: ctx path %d rows, legacy %d", query, res.Rel.Len(), legacy.Len())
		}
	}
}

func TestExecCtxAdmission(t *testing.T) {
	cat, _ := ctxFixture(t, 2)
	adm := engine.NewAdmission(1, 0)
	// Hold the only slot, then try to execute: the query must shed with
	// the typed overload error instead of evaluating.
	release, err := adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCtx(context.Background(), ctxQuery, cat, Options{Admission: adm})
	var oe *engine.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *engine.OverloadError", err)
	}
	release()
	res, err := RunCtx(context.Background(), ctxQuery, cat, Options{Admission: adm})
	if err != nil {
		t.Fatalf("post-release query failed: %v", err)
	}
	if res.Rel.Len() == 0 {
		t.Fatal("post-release query returned no rows")
	}
	if got := adm.InFlight(); got != 0 {
		t.Fatalf("slot leaked: InFlight = %d", got)
	}
}

func TestExplainFaultPolicy(t *testing.T) {
	cat, _ := ctxFixture(t, 3)
	opts := Options{Robust: engine.Robust{Policy: engine.PolicyPartial, ShardTimeout: 50 * time.Millisecond}}
	text, err := ExplainQuery(ctxQuery, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "fault policy: partial") || !strings.Contains(text, "per-shard timeout 50ms") {
		t.Fatalf("EXPLAIN missing the fault policy line:\n%s", text)
	}
	// The default strict policy stays silent — it is not plan-relevant.
	text, err = ExplainQuery(ctxQuery, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "fault policy") {
		t.Fatalf("default EXPLAIN leaked a fault policy line:\n%s", text)
	}
}

// cacheCounters snapshots the counters of the three caches a sharded
// statement touches: compile lookups, selection (hits, misses) and
// result (hits, misses, carries). Compile hits and misses are summed:
// the grouped step runs several jobs per shard concurrently, and two of
// them can both miss on the shard's first bind — how many do is
// scheduling, not path.
func cacheCounters() [6]uint64 {
	var c [6]uint64
	ch, cm := engine.CompileCacheStats()
	c[0] = ch + cm
	c[1], c[2] = filter.CacheStats()
	c[3], c[4], c[5] = resultcache.Stats()
	return c
}

// TestShardedSamePathAnyContext: whether the caller's context can be
// cancelled must not select code. Each statement shape of the sharded
// pipeline runs cold then warm through Exec (context.Background()) and
// through ExecCtx under a cancellable context, over identical fresh
// tables and empty caches; the row sets and every cache-counter delta
// must coincide — a path that skipped the result cache, re-bound per
// query or flattened the shards would show up in the counters.
func TestShardedSamePathAnyContext(t *testing.T) {
	const shards = 4
	queries := []string{
		"SELECT oid FROM car WHERE price <= 60000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
		"SELECT oid FROM car PREFERRING price AROUND 30000 CASCADE HIGHEST(horsepower) BUT ONLY DISTANCE(price) <= 1000",
		"SELECT oid FROM car WHERE horsepower >= 80 PREFERRING LOWEST(price) GROUPING BY make, color",
		"SELECT oid FROM car PREFERRING RANK(LOWEST(price), HIGHEST(horsepower)) TOP 7",
	}
	resetCaches := func() {
		engine.ResetCompileCache()
		filter.ResetCache()
		resultcache.Reset()
		rank.ResetScoreCache()
	}
	defer resetCaches()
	type run struct {
		rows   []int64
		deltas [6]uint64
	}
	// exec runs the statement cold then warm over a fresh table and
	// returns both runs' rows and counter deltas.
	exec := func(query string, cancellable bool) [2]run {
		resetCaches()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, cat := shardedCatalog(t, 600, shards, 23)
		q, err := Parse(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		var out [2]run
		for k := range out {
			before := cacheCounters()
			var rel *relation.Relation
			if !cancellable {
				rel, err = Exec(q, cat, Options{})
			} else {
				var res *Result
				if res, err = ExecCtx(ctx, q, cat, Options{}); err == nil {
					rel = res.Rel
				}
			}
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			after := cacheCounters()
			out[k].rows = sortedOIDs(t, rel)
			for i := range after {
				out[k].deltas[i] = after[i] - before[i]
			}
		}
		return out
	}
	for _, query := range queries {
		background, cancellable := exec(query, false), exec(query, true)
		for k, temp := range []string{"cold", "warm"} {
			if !sameOIDs(background[k].rows, cancellable[k].rows) {
				t.Fatalf("%s (%s): Exec and ExecCtx row sets differ: %v vs %v", query, temp, background[k].rows, cancellable[k].rows)
			}
			if background[k].deltas != cancellable[k].deltas {
				t.Fatalf("%s (%s): cache-counter deltas differ (compile lookups, selection h/m, result h/m/carry):\n  Exec    %v\n  ExecCtx %v",
					query, temp, background[k].deltas, cancellable[k].deltas)
			}
		}
		if len(background[0].rows) == 0 {
			t.Fatalf("%s: empty result — the comparison would be vacuous", query)
		}
	}
	// Non-vacuous: the first shape's warm run is result-cache served on
	// every shard, from either entry point.
	if warm := exec(queries[0], false)[1].deltas; warm[3] < shards || warm[4] != 0 {
		t.Fatalf("warm Exec must hit the result cache on all %d shards: hits %d misses %d", shards, warm[3], warm[4])
	}
}

// TestExecStreamCtxCancelled: every stream route — flat progressive,
// sharded progressive, sharded batch pass, pipeline fallback — refuses a
// dead context with its error and zero rows.
func TestExecStreamCtxCancelled(t *testing.T) {
	flatCat, shardCat := shardedCatalog(t, 400, 3, 17)
	queries := []string{
		"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)",   // progressive
		"SELECT oid FROM car PREFERRING color IN ('red') PRIOR TO LOWEST(price)", // sharded: batch pass
		"SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color",         // pipeline fallback
	}
	for _, cat := range []Catalog{flatCat, shardCat} {
		for _, query := range queries {
			q, err := Parse(query)
			if err != nil {
				t.Fatal(err)
			}
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			n, _, err := ExecStreamCtx(dead, q, cat, Options{}, func(relation.Row) bool { return true })
			if n != 0 || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: dead context streamed %d rows, err = %v", query, n, err)
			}
		}
	}
}

// TestExecCtxFlatTableIsOneShard: a flat table runs as its one-shard view,
// so the fault stack reaches it — a fault installed on the view fires and
// the per-shard deadline cuts a hung evaluation off, in a batch statement
// and in a stream's batch pass.
func TestExecCtxFlatTableIsOneShard(t *testing.T) {
	flatCat, _ := shardedCatalog(t, 200, 2, 5)
	view := relation.OneShard(flatCat["car"].(*relation.Relation))
	faultinject.Install(view, 0, faultinject.Fault{Mode: faultinject.Hang})
	t.Cleanup(func() { faultinject.RemoveAll(view) })
	opts := Options{Robust: engine.Robust{ShardTimeout: 30 * time.Millisecond}}
	q, err := Parse("SELECT oid FROM car PREFERRING EXPLICIT(color, ('blue', 'red'))") // keyless: streams through the batch
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ExecCtx(context.Background(), q, flatCat, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want the shard deadline", err)
	}
	if _, _, err := ExecStreamCtx(context.Background(), q, flatCat, opts, func(relation.Row) bool { return true }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stream err = %v, want the shard deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the shard deadline did not bound the flat table: %v", elapsed)
	}
}
