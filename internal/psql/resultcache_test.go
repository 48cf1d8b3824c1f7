package psql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/relation"
)

// churnRow builds one random car row with the given oid.
func churnRow(rng *rand.Rand, oid int) relation.Row {
	colors := []string{"red", "blue", "gray"}
	return relation.Row{
		int64(oid),
		int64(20000 + rng.Intn(40)*1000),
		int64(70 + rng.Intn(40)*5),
		colors[rng.Intn(len(colors))],
	}
}

// churnCar builds a randomized car relation for the churn battery.
func churnCar(rng *rand.Rand, n int) *relation.Relation {
	car := relation.New("car", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "power", Type: relation.Int},
		relation.Column{Name: "color", Type: relation.String},
	))
	for i := 0; i < n; i++ {
		car.MustInsert(churnRow(rng, i))
	}
	return car
}

// churnQueries covers the pipeline shapes: the keyed first soft step
// (with and without WHERE), plus the always-evaluating tails (grouped,
// cascade, BUT ONLY, skyline, TOP) that consume its output.
var churnQueries = []string{
	"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(power)",
	"SELECT oid FROM car WHERE price <= 45000 PREFERRING HIGHEST(power)",
	"SELECT oid FROM car PREFERRING price AROUND 30000",
	"SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY color",
	"SELECT oid FROM car PREFERRING color IN ('red') CASCADE HIGHEST(power)",
	"SELECT oid FROM car PREFERRING price AROUND 30000 BUT ONLY level(price) <= 2",
	"SELECT oid FROM car SKYLINE OF price MIN, power MAX",
	"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(power) TOP 3",
}

// renderRel renders a result's rows for comparison.
func renderRel(r *relation.Relation) string {
	var b strings.Builder
	for i := 0; i < r.Len(); i++ {
		fmt.Fprintf(&b, "%v\n", r.Row(i))
	}
	return b.String()
}

// TestResultCacheChurnAgreement is the randomized end-to-end soundness
// battery: across flat and sharded (1..8) layouts, every algorithm, and
// a churn of inserts, catalog Replace and Drop/re-register, each query
// executes twice through the cache (cold store, then hit) and both
// results must equal an execution with the cache disabled. The per-run
// hit assertion keeps the agreement non-vacuous.
func TestResultCacheChurnAgreement(t *testing.T) {
	algs := []engine.Algorithm{
		engine.Naive, engine.BNL, engine.SFS, engine.Decomposition, engine.Auto,
	}
	for _, shards := range []int{0, 1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			resultcache.Reset()
			defer resultcache.Reset()
			rng := rand.New(rand.NewSource(int64(31 + shards)))
			car := churnCar(rng, 40+rng.Intn(40))
			cat := Catalog{}
			install := func(r *relation.Relation) {
				if shards == 0 {
					cat.Replace("car", r)
					return
				}
				sh, err := relation.ShardRelation(r, shards, relation.ByHash("oid"))
				if err != nil {
					t.Fatal(err)
				}
				cat.Replace("car", sh)
			}
			install(car)
			// Any context runs the same cache-served pipeline; a
			// cancellable one also exercises the stride polling.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for step := 0; step < 10; step++ {
				query := churnQueries[rng.Intn(len(churnQueries))]
				opts := Options{Algorithm: algs[rng.Intn(len(algs))]}
				parsed, err := Parse(query)
				if err != nil {
					t.Fatal(err)
				}
				var through [2]string
				for i := range through {
					res, err := ExecCtx(ctx, parsed, cat, opts)
					if err != nil {
						t.Fatalf("step %d %q: %v", step, query, err)
					}
					through[i] = renderRel(res.Rel)
				}
				resultcache.SetEnabled(false)
				res, err := ExecCtx(ctx, parsed, cat, opts)
				resultcache.SetEnabled(true)
				if err != nil {
					t.Fatalf("step %d %q (cache off): %v", step, query, err)
				}
				want := renderRel(res.Rel)
				if through[0] != want || through[1] != want {
					t.Fatalf("step %d %q (alg %v): cold/hit/uncached disagree:\ncold: %shit:  %swant: %s",
						step, query, opts.Algorithm, through[0], through[1], want)
				}
				switch rng.Intn(4) {
				case 0, 1: // append into the live table (maintenance carry)
					row := churnRow(rng, 1000+step)
					switch tbl := cat["car"].(type) {
					case *relation.Relation:
						tbl.MustInsert(row)
					case *relation.Sharded:
						if err := tbl.Insert(row); err != nil {
							t.Fatal(err)
						}
					}
				case 2: // replace with a fresh relation (evicts the old one)
					car = churnCar(rng, 30+rng.Intn(40))
					install(car)
				case 3: // drop and re-register (evicts, then cold restart)
					cat.Drop("car")
					install(car)
				}
			}
			if h, _, _ := resultcache.Stats(); h == 0 {
				t.Fatal("churn battery must exercise cache hits")
			}
		})
	}
}

// TestExplainReportsResultCache pins the EXPLAIN annotations: cold
// before the first execution, hit after (including after a write, since
// maintenance carries the entry forward), bypass when the cache is off,
// and the per-shard rollup on sharded layouts.
func TestExplainReportsResultCache(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	cat := testCatalog()
	query := "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(power)"

	plan, err := ExplainQuery(query, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "result cache: cold") {
		t.Fatalf("pre-execution plan must report cold:\n%s", plan)
	}
	if _, err := Run(query, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err = ExplainQuery(query, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "result cache: hit") {
		t.Fatalf("post-execution plan must report hit:\n%s", plan)
	}
	// A write does not invalidate: maintenance carries the entry to the
	// new generation, so the repeat statement still serves.
	cat["car"].(*relation.Relation).MustInsert(
		relation.Row{int64(9), "VW", "red", int64(70000), int64(60), int64(90000)})
	plan, err = ExplainQuery(query, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "result cache: hit") {
		t.Fatalf("post-insert plan must still report hit (incremental maintenance):\n%s", plan)
	}
	resultcache.SetEnabled(false)
	plan, err = ExplainQuery(query, cat, Options{})
	resultcache.SetEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "result cache: bypass") {
		t.Fatalf("disabled-cache plan must report bypass:\n%s", plan)
	}

	// Sharded: the rollup counts cached shards.
	resultcache.Reset()
	flat := cat["car"].(*relation.Relation)
	sh, err := relation.ShardRelation(flat, 3, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	shCat := Catalog{"car": sh}
	plan, err = ExplainQuery(query, shCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "result cache: cold on 3/3 shards") {
		t.Fatalf("pre-execution sharded plan must report cold on all shards:\n%s", plan)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parsed, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecCtx(ctx, parsed, shCat, Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err = ExplainQuery(query, shCat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "result cache: hit on all shards") {
		t.Fatalf("post-execution sharded plan must report hit on all shards:\n%s", plan)
	}
}
