package psql

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/pref"
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

// TestCatalogDropEvictsCaches: dropping (or replacing) a catalog relation
// must release every bound form cached against it — compile cache and
// selection bitmaps alike — so the dropped rows stop being pinned.
func TestCatalogDropEvictsCaches(t *testing.T) {
	engine.ResetCompileCache()
	filter.ResetCache()
	defer engine.ResetCompileCache()
	defer filter.ResetCache()
	cat := testCatalog()
	rel := cat["car"].(*relation.Relation)
	query := "SELECT oid FROM car WHERE price <= 45000 PREFERRING LOWEST(price)"
	if _, err := Run(query, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	where := &CmpExpr{Attr: "price", Op: "<=", Value: 45000.0}
	if !filter.CacheContains(where, rel) {
		t.Fatal("execution must have cached the selection bitmap")
	}
	if !engine.CompileCached(pref.LOWEST("price"), rel) {
		t.Fatal("execution must have cached the bound preference form")
	}
	if !cat.Drop("car") {
		t.Fatal("Drop must report the relation existed")
	}
	if _, ok := cat["car"]; ok {
		t.Fatal("Drop must remove the catalog entry")
	}
	if filter.CacheContains(where, rel) {
		t.Fatal("Drop must evict the selection bitmap")
	}
	if engine.CompileCached(pref.LOWEST("price"), rel) {
		t.Fatal("Drop must evict the compiled preference form")
	}
	if cat.Drop("car") {
		t.Fatal("double Drop must report a missing relation")
	}

	// Replace evicts the displaced relation's entries the same way.
	cat = testCatalog()
	rel = cat["car"].(*relation.Relation)
	if _, err := Run(query, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	cat.Replace("car", testCatalog()["car"])
	if engine.CompileCached(pref.LOWEST("price"), rel) {
		t.Fatal("Replace must evict the displaced relation's bound forms")
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

// TestGroupedQueryReusesCompileCache: grouped queries evaluate as index
// slices over the base catalog relation (GroupByShardedOn), so their
// bound form is cache-served across repeated executions — with and
// without a WHERE clause, which used to force a per-query materialized
// subset and re-bind.
func TestGroupedQueryReusesCompileCache(t *testing.T) {
	engine.ResetCompileCache()
	defer engine.ResetCompileCache()
	cat := testCatalog()
	query := "SELECT oid FROM car PREFERRING price AROUND 40000 GROUPING BY make"
	for i := 0; i < 2; i++ {
		if _, err := Run(query, cat, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := engine.CompileCacheStats(); h < 1 {
		t.Fatal("repeated grouped full-scan query must reuse the cached bound form")
	}
	plan, err := ExplainQuery(query, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "compile cache: hit") {
		t.Fatalf("EXPLAIN after grouped executions must report the hit:\n%s", plan)
	}
	// The WHERE-filtered grouped query shares the very same bound form:
	// the candidate subset changes, the cache entry does not.
	filtered := "SELECT oid FROM car WHERE price <= 45000 PREFERRING price AROUND 40000 GROUPING BY make"
	plan, err = ExplainQuery(filtered, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "compile cache: hit") {
		t.Fatalf("filtered grouped EXPLAIN must report the shared cached form:\n%s", plan)
	}
	hBefore, _ := engine.CompileCacheStats()
	if _, err := Run(filtered, cat, Options{}); err != nil {
		t.Fatal(err)
	}
	if hAfter, _ := engine.CompileCacheStats(); hAfter <= hBefore {
		t.Fatal("filtered grouped execution must hit the compile cache")
	}
}
