package psql

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/rank"
	"repro/internal/relation"
)

// testCatalog builds a small car catalog with known BMO answers.
func testCatalog() Catalog {
	car := relation.New("car", relation.MustSchema(
		relation.Column{Name: "oid", Type: relation.Int},
		relation.Column{Name: "make", Type: relation.String},
		relation.Column{Name: "color", Type: relation.String},
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "power", Type: relation.Int},
		relation.Column{Name: "mileage", Type: relation.Int},
	)).MustInsert(
		relation.Row{int64(1), "Opel", "red", int64(40000), int64(90), int64(20000)},
		relation.Row{int64(2), "Opel", "blue", int64(35000), int64(110), int64(50000)},
		relation.Row{int64(3), "BMW", "red", int64(50000), int64(190), int64(10000)},
		relation.Row{int64(4), "BMW", "gray", int64(45000), int64(170), int64(30000)},
		relation.Row{int64(5), "Opel", "red", int64(38000), int64(95), int64(60000)},
	)
	return Catalog{"car": car}
}

func oids(t *testing.T, r *relation.Relation) []int64 {
	t.Helper()
	var out []int64
	for i := 0; i < r.Len(); i++ {
		v, ok := r.Tuple(i).Get("oid")
		if !ok {
			t.Fatal("result lacks oid column")
		}
		out = append(out, v.(int64))
	}
	return out
}

func run(t *testing.T, query string) *relation.Relation {
	t.Helper()
	res, err := Run(query, testCatalog(), Options{})
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	return res
}

func TestExecHardWhereOnly(t *testing.T) {
	res := run(t, "SELECT oid FROM car WHERE make = 'Opel' AND price < 39000 ORDER BY oid")
	got := oids(t, res)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("oids = %v, want [2 5]", got)
	}
}

func TestExecPreferringBMO(t *testing.T) {
	// Lowest price: oid 2 (35000).
	res := run(t, "SELECT oid FROM car PREFERRING LOWEST(price)")
	if got := oids(t, res); len(got) != 1 || got[0] != 2 {
		t.Errorf("oids = %v, want [2]", got)
	}
	// Pareto price/mileage trade-off.
	res = run(t, "SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY oid")
	if got := oids(t, res); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("oids = %v, want [1 2 3]", got)
	}
}

func TestExecPreferringNeverEmpty(t *testing.T) {
	// No yellow car exists; an exact-match engine would return nothing.
	res := run(t, "SELECT oid FROM car PREFERRING color = 'yellow'")
	if res.Len() != 5 {
		t.Errorf("POS with no hits relaxes to all rows, got %d", res.Len())
	}
}

func TestExecWherePlusPreferring(t *testing.T) {
	res := run(t, "SELECT oid FROM car WHERE make = 'Opel' PREFERRING HIGHEST(power)")
	if got := oids(t, res); len(got) != 1 || got[0] != 2 {
		t.Errorf("oids = %v, want [2]", got)
	}
}

func TestExecCascade(t *testing.T) {
	// Red cars first (others relaxed away since red exists), then lowest
	// price among them.
	res := run(t, "SELECT oid FROM car PREFERRING color = 'red' CASCADE LOWEST(price)")
	if got := oids(t, res); len(got) != 1 || got[0] != 5 {
		t.Errorf("oids = %v, want [5]", got)
	}
}

func TestExecGroupingBy(t *testing.T) {
	res := run(t, "SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY make ORDER BY oid")
	if got := oids(t, res); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("cheapest per make = %v, want [2 4]", got)
	}
}

func TestExecButOnly(t *testing.T) {
	// Best price match around 36000 is oid 2 (35000, distance 1000) and
	// within the guard; tighten the guard to exclude everything.
	res := run(t, "SELECT oid FROM car PREFERRING price AROUND 36000 BUT ONLY DISTANCE(price) <= 500")
	if res.Len() != 0 {
		t.Errorf("BUT ONLY must be able to empty the result, got %d rows", res.Len())
	}
	res = run(t, "SELECT oid FROM car PREFERRING price AROUND 36000 BUT ONLY DISTANCE(price) <= 1000")
	if got := oids(t, res); len(got) != 1 || got[0] != 2 {
		t.Errorf("oids = %v, want [2]", got)
	}
	// LEVEL guard on POS preference.
	res = run(t, "SELECT oid FROM car PREFERRING color = 'red' BUT ONLY LEVEL(color) <= 1 ORDER BY oid")
	if got := oids(t, res); len(got) != 3 {
		t.Errorf("red cars only: %v", got)
	}
}

func TestExecButOnlyRequiresPreferring(t *testing.T) {
	_, err := Run("SELECT oid FROM car BUT ONLY LEVEL(color) <= 1", testCatalog(), Options{})
	if err == nil || !strings.Contains(err.Error(), "PREFERRING") {
		t.Errorf("BUT ONLY without PREFERRING must fail, got %v", err)
	}
}

func TestExecSkylineClause(t *testing.T) {
	res := run(t, "SELECT oid FROM car SKYLINE OF price MIN, power MAX ORDER BY oid")
	// Check against the engine directly.
	p := pref.Pareto(pref.LOWEST("price"), pref.HIGHEST("power"))
	want := engine.BMO(p, testCatalog()["car"].(*relation.Relation), engine.Naive)
	if res.Len() != want.Len() {
		t.Errorf("skyline size %d, want %d", res.Len(), want.Len())
	}
}

func TestExecTopKRankedModel(t *testing.T) {
	// RANK + TOP k switches to the k-best model: k rows in score order.
	res := run(t, "SELECT oid FROM car PREFERRING RANK(HIGHEST(power), LOWEST(price)) TOP 3")
	if res.Len() != 3 {
		t.Fatalf("TOP 3 must return exactly 3 rows, got %d", res.Len())
	}
	// With unit weights the price term dominates the combined score
	// power − price, so the cheapest car (oid 2) ranks first.
	if got := oids(t, res); got[0] != 2 || got[1] != 5 || got[2] != 1 {
		t.Errorf("ranked order = %v, want [2 5 1]", got)
	}
}

func TestExecTopTruncatesBMO(t *testing.T) {
	res := run(t, "SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY oid TOP 2")
	if res.Len() != 2 {
		t.Errorf("TOP truncation failed: %d rows", res.Len())
	}
}

func TestExecOrderByAndDistinct(t *testing.T) {
	res := run(t, "SELECT make FROM car ORDER BY make")
	if res.Len() != 5 {
		t.Error("projection keeps duplicates without DISTINCT")
	}
	res = run(t, "SELECT DISTINCT make FROM car ORDER BY make")
	if res.Len() != 2 {
		t.Errorf("DISTINCT make = %d rows, want 2", res.Len())
	}
	v, _ := res.Tuple(0).Get("make")
	if v != "BMW" {
		t.Errorf("order by make ascending, first = %v", v)
	}
	res = run(t, "SELECT oid FROM car ORDER BY price DESC")
	if got := oids(t, res); got[0] != 3 {
		t.Errorf("most expensive first, got %v", got)
	}
}

func TestExecUnknownRelationAndColumns(t *testing.T) {
	if _, err := Run("SELECT * FROM nope", testCatalog(), Options{}); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := Run("SELECT nope FROM car", testCatalog(), Options{}); err == nil {
		t.Error("unknown select column must fail")
	}
	if _, err := Run("SELECT oid FROM car PREFERRING LOWEST(nope)", testCatalog(), Options{}); err == nil {
		t.Error("unknown preference column must fail")
	}
	if _, err := Run("SELECT oid FROM car SKYLINE OF nope MIN", testCatalog(), Options{}); err == nil {
		t.Error("unknown skyline column must fail")
	}
	if _, err := Run("SELECT oid FROM car PREFERRING LOWEST(price) GROUPING BY nope", testCatalog(), Options{}); err == nil {
		t.Error("unknown grouping column must fail")
	}
}

func TestExecAllAlgorithmsAgree(t *testing.T) {
	query := "SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) ORDER BY oid"
	var want []int64
	for i, alg := range []engine.Algorithm{engine.Naive, engine.BNL, engine.SFS, engine.Decomposition} {
		res, err := Run(query, testCatalog(), Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		got := oids(t, res)
		if i == 0 {
			want = got
			continue
		}
		for j := range want {
			if j >= len(got) || got[j] != want[j] {
				t.Fatalf("%s disagrees: %v vs %v", alg, got, want)
			}
		}
	}
}

func TestExecExplicitPreference(t *testing.T) {
	res := run(t, "SELECT oid FROM car PREFERRING EXPLICIT(color, ('blue', 'red'), ('gray', 'blue')) ORDER BY oid")
	// red best; rows 1, 3, 5 are red.
	if got := oids(t, res); len(got) != 3 {
		t.Errorf("explicit preference oids = %v", got)
	}
}

func TestExecInAndLikeAndNull(t *testing.T) {
	res := run(t, "SELECT oid FROM car WHERE make IN ('BMW') ORDER BY oid")
	if got := oids(t, res); len(got) != 2 || got[0] != 3 {
		t.Errorf("IN filter = %v", got)
	}
	res = run(t, "SELECT oid FROM car WHERE color LIKE 'r%' ORDER BY oid")
	if got := oids(t, res); len(got) != 3 {
		t.Errorf("LIKE filter = %v", got)
	}
	res = run(t, "SELECT oid FROM car WHERE color IS NULL")
	if res.Len() != 0 {
		t.Error("no NULL colors in fixture")
	}
	res = run(t, "SELECT oid FROM car WHERE color IS NOT NULL")
	if res.Len() != 5 {
		t.Error("IS NOT NULL must keep all rows")
	}
}

// TestCatalogDropEvictsCaches: what is cached about a catalog relation —
// result maxima, and a RANK statement's score vector, which a snapshot
// view and the live relation share — lives on its generation, so
// dropping or replacing the relation frees it with no sweep once the last
// snapshot of it is gone. A WHERE-scoped statement stores nothing.
func TestCatalogDropEvictsCaches(t *testing.T) {
	rank.ResetScoreCache()
	t.Cleanup(rank.ResetScoreCache)
	cat := testCatalog()
	rel := cat["car"].(*relation.Relation)
	query := "SELECT oid FROM car PREFERRING LOWEST(price)"
	if _, err := Run(query, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	if s := engine.ResultCacheState(pref.LOWEST("price"), rel, nil); s != "hit" {
		t.Fatalf("execution must have stored its maxima: result cache %s", s)
	}
	if _, err := Run("SELECT oid FROM car WHERE price <= 45000 PREFERRING LOWEST(mileage)", cat, Options{}); err != nil {
		t.Fatal(err)
	}
	where := &CmpExpr{Attr: "price", Op: "<=", Value: int64(45000)}
	if s := engine.ResultCacheState(pref.LOWEST("mileage"), rel, where); s != "bypass" {
		t.Fatalf("a WHERE-scoped statement must bypass the result cache: %s", s)
	}
	if s := engine.ResultCacheState(pref.LOWEST("mileage"), rel, nil); s != "cold" {
		t.Fatalf("a WHERE-scoped statement stored its maxima: result cache %s", s)
	}
	// A RANK statement through a snapshot view, then through the live
	// relation: one score vector, stored by the first and hit by the
	// second.
	ranked := "SELECT oid FROM car PREFERRING RANK(LOWEST(price), HIGHEST(power)) TOP 3"
	snapCat := Catalog{"car": rel.Snapshot()}
	for _, c := range []Catalog{snapCat, cat} {
		if _, err := Run(ranked, c, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := rank.ScoreCacheStats(); h != 1 || m != 1 {
		t.Fatalf("the snapshot and the live relation must share one score vector: hits %d misses %d", h, m)
	}
	scorer, err := pref.RankWeighted([]float64{1, 1}, pref.LOWEST("price"), pref.HIGHEST("power"))
	if err != nil {
		t.Fatal(err)
	}
	key, _ := pref.CacheKey(scorer)
	v, ok := rel.Memo().Peek("rank:" + key)
	if !ok {
		t.Fatal("test premise: the score vector is not where the statement keeps it")
	}
	vec := weak.Make(&v.([]float64)[0])
	table := weak.Make(rel)
	v, rel = nil, nil
	if !cat.Drop("car") {
		t.Fatal("Drop must report the relation existed")
	}
	if _, ok := cat["car"]; ok {
		t.Fatal("Drop must remove the catalog entry")
	}
	if cat.Drop("car") {
		t.Fatal("double Drop must report a missing relation")
	}
	// The snapshot still reads the dropped generation, and its score
	// vector with it: the statement hits.
	if _, err := Run(ranked, snapCat, Options{}); err != nil {
		t.Fatal(err)
	}
	if h, m := rank.ScoreCacheStats(); h != 2 || m != 1 {
		t.Fatalf("a snapshot of the dropped relation must keep its score vector: hits %d misses %d", h, m)
	}
	snapCat = nil
	collect()
	if vec.Value() != nil || table.Value() != nil {
		t.Fatal("the dropped relation or its score vector outlived its last snapshot")
	}

	// Replace frees the displaced relation the same way.
	cat = testCatalog()
	if _, err := Run(query, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	table = weak.Make(cat["car"].(*relation.Relation))
	cat.Replace("car", testCatalog()["car"])
	collect()
	if table.Value() != nil {
		t.Fatal("the replaced relation outlived its catalog entry")
	}
}

// collect runs enough collections for weak pointers to clear.
func collect() {
	for range 3 {
		runtime.GC()
	}
}

// TestMemoKeepsOnlyResults: a statement's bound forms — preference
// scores, the WHERE selection, BUT ONLY's quality vectors — are dropped
// when it ends, so what the relation's generation keeps after an
// unfiltered and a BUT ONLY statement is exactly their stored maxima. A
// WHERE-scoped statement stores none.
func TestMemoKeepsOnlyResults(t *testing.T) {
	cat := testCatalog()
	rel := cat["car"].(*relation.Relation)
	for _, q := range []string{
		"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(power)",
		"SELECT oid FROM car PREFERRING LOWEST(mileage)",
		"SELECT oid FROM car WHERE price <= 45000 PREFERRING LOWEST(mileage)",
		"SELECT oid FROM car PREFERRING color IN ('red', 'blue', 'gray') BUT ONLY LEVEL(color) <= 1",
	} {
		if _, err := Run(q, cat, Options{}); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if n := rel.Memo().Len(); n != 3 {
		t.Fatalf("the statements left %d memo entries, want their 3 results (none for the WHERE-scoped one)", n)
	}
}

// TestTopKDispatchUsesUnsimplifiedTerm guards the ranked-model dispatch:
// LOWEST(price) PRIOR TO HIGHEST(price) collapses to LOWEST(price) by
// Prop 4a, which is a Scorer — but the query as written is not, so it
// must stay a BMO query truncated by TOP (one row: the price minimum),
// not switch to the ranked k-best model (which would return 3 rows).
// Explain makes the same check on the unsimplified term.
func TestTopKDispatchUsesUnsimplifiedTerm(t *testing.T) {
	res := run(t, "SELECT oid FROM car PREFERRING LOWEST(price) PRIOR TO HIGHEST(price) TOP 3")
	if got := oids(t, res); len(got) != 1 || got[0] != 2 {
		t.Fatalf("BMO + TOP 3 must return the single price minimum {2}, got %v", got)
	}
	plan, err := ExplainQuery("EXPLAIN SELECT oid FROM car PREFERRING LOWEST(price) PRIOR TO HIGHEST(price) TOP 3", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "truncate to TOP 3") || strings.Contains(plan, "ranked query model") {
		t.Fatalf("EXPLAIN must describe BMO + truncation, not the ranked model:\n%s", plan)
	}
}

// TestGroupedQueryBindsWholeShard: grouped queries evaluate as index
// slices over the base catalog relation (GroupByShardedOn), whose groups
// share one whole-shard bound form — with and without a WHERE clause, so
// EXPLAIN reports a full bind either way — and repeat identically.
func TestGroupedQueryBindsWholeShard(t *testing.T) {
	cat := testCatalog()
	for _, query := range []string{
		"SELECT oid FROM car PREFERRING price AROUND 40000 GROUPING BY make ORDER BY oid",
		"SELECT oid FROM car WHERE price <= 45000 PREFERRING price AROUND 40000 GROUPING BY make ORDER BY oid",
	} {
		runCat := func() []int64 {
			res, err := Run(query, cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return oids(t, res)
		}
		first := runCat()
		if again := runCat(); !slices.Equal(first, again) {
			t.Fatalf("%s: repeat returned %v, first %v", query, again, first)
		}
		plan, err := ExplainQuery(query, cat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "(bind: full over 5 rows)") {
			t.Fatalf("grouped EXPLAIN must report the whole-shard bind:\n%s", plan)
		}
	}
}
