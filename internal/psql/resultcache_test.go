package psql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
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

// churnOracle evaluates a churn statement clause by clause with the
// interpreted BNL oracle over the flattened table — an ephemeral copy in
// global row order, against which nothing is cached — and renders its
// oids the way renderRel renders the statement's result.
func churnOracle(t *testing.T, q *Query, tbl relation.Table) string {
	t.Helper()
	var cur *relation.Relation
	switch tbl := tbl.(type) {
	case *relation.Relation:
		cur = relation.OneShard(tbl).Flatten()
	case *relation.Sharded:
		cur = tbl.Flatten()
	}
	oracle := func(p pref.Preference, r *relation.Relation) []int {
		return engine.BMOIndicesMode(p, r, engine.BNL, engine.EvalInterpreted)
	}
	tm := buildTerms(q)
	if q.Where != nil {
		cur = cur.Select(q.Where.Eval)
	}
	if q.Preferring != nil {
		p := tm.preferring.p
		groups := map[string][]int{"": nil}
		if len(q.GroupingBy) > 0 {
			groups = map[string][]int{}
			for i := 0; i < cur.Len(); i++ {
				var key strings.Builder
				for _, a := range q.GroupingBy {
					v, _ := cur.Tuple(i).Get(a)
					fmt.Fprintf(&key, "%q;", pref.ValueKey(v))
				}
				groups[key.String()] = append(groups[key.String()], i)
			}
		}
		var keep []int
		for _, g := range groups {
			if g == nil {
				keep = oracle(p, cur)
				break
			}
			for _, i := range oracle(p, cur.Pick(g)) {
				keep = append(keep, g[i])
			}
		}
		slices.Sort(keep)
		cur = cur.Pick(keep)
	}
	for _, c := range tm.cascades {
		cur = cur.Pick(oracle(c.p, cur))
	}
	if q.ButOnly != nil {
		byAttr := collectBasePrefs(tm)
		cur = cur.Select(func(tu pref.Tuple) bool { return q.ButOnly.Eval(byAttr, tu) })
	}
	if q.Skyline != nil {
		p, err := q.Skyline.Preference()
		if err != nil {
			t.Fatal(err)
		}
		cur = cur.Pick(oracle(p, cur))
	}
	if q.Top > 0 && cur.Len() > q.Top {
		top := make([]int, q.Top)
		for i := range top {
			top[i] = i
		}
		cur = cur.Pick(top)
	}
	var b strings.Builder
	for i := 0; i < cur.Len(); i++ {
		oid, _ := cur.Tuple(i).Get("oid")
		fmt.Fprintf(&b, "%v\n", relation.Row{oid})
	}
	return b.String()
}

// TestResultCacheChurnAgreement is the randomized end-to-end soundness
// battery: across flat and sharded (1..8) layouts, every algorithm, and
// a churn of inserts, catalog Replace and Drop/re-register, each query
// executes twice through the cache (cold store, then hit) and both
// results must equal the interpreted BNL oracle over the flattened table
// (churnOracle). The per-run hit assertion keeps the agreement
// non-vacuous.
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
				want := churnOracle(t, parsed, cat["car"])
				if through[0] != want || through[1] != want {
					t.Fatalf("step %d %q (alg %v): cold/hit/oracle disagree:\ncold: %shit:  %swant: %s",
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
// maintenance carries the entry forward), and the per-shard rollup on
// sharded layouts.
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

// TestResultCacheBypassesWhereScoped: the three cold_skyline shapes, each
// WHERE-scoped, over a flat table and over two range shards never reach
// the result cache — its counters and its entry count do not move, and
// EXPLAIN prints the bypass line before and after each run, also after
// an Insert. The same terms without WHERE store, hit, and carry across
// the Insert. Every answer equals the interpreted BNL oracle.
func TestResultCacheBypassesWhereScoped(t *testing.T) {
	terms := []string{
		"d1 AROUND 0.41 AND d2 AROUND 0.63 AND LOWEST(d3)",
		"(d1 AROUND 0.41 AND LOWEST(d2)) PRIOR TO LOWEST(d3)",
		"LOWEST(d3) PRIOR TO (d1 AROUND 0.41 AND LOWEST(d2))",
	}
	const bypass = "(result cache: bypass — WHERE-scoped, never cached)"
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			resultcache.Reset()
			t.Cleanup(resultcache.Reset)
			pts := workload.Numeric(2000, 4, workload.AntiCorrelated, 61)
			var tbl relation.Table = pts
			if shards > 1 {
				s, err := relation.ShardRelation(pts, shards, relation.ByRange("d1", relation.RangeBounds(pts, "d1", shards)...))
				if err != nil {
					t.Fatal(err)
				}
				tbl = s
			}
			cat := Catalog{"pts": tbl}
			// run executes the statement and holds it to the oracle over
			// the flattened table: both rendered as sorted row lines.
			run := func(stmt string) {
				t.Helper()
				q, err := Parse(stmt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(stmt, cat, Options{})
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				flat := relation.OneShard(pts).Flatten()
				if s, ok := tbl.(*relation.Sharded); ok {
					flat = s.Flatten()
				}
				if q.Where != nil {
					flat = flat.Select(q.Where.Eval)
				}
				want := flat.Pick(engine.BMOIndicesMode(buildTerms(q).preferring.p, flat, engine.BNL, engine.EvalInterpreted))
				got, exp := sortedLines(renderRel(res)), sortedLines(renderRel(want))
				if got != exp || want.Len() == 0 {
					t.Fatalf("%s: got\n%swant\n%s", stmt, got, exp)
				}
			}
			// entries counts the whole-shard maxima cached for the terms:
			// the one key form a WHERE-scoped statement could store under.
			entries := func() int {
				n := 0
				for _, term := range terms {
					q, err := Parse("SELECT * FROM pts PREFERRING " + term)
					if err != nil {
						t.Fatal(err)
					}
					s, _ := sharded(tbl)
					k, _ := engine.ResultCachedShards(buildTerms(q).preferring.p, s, nil)
					n += k
				}
				return n
			}
			scoped := func() {
				t.Helper()
				h0, m0, c0 := resultcache.Stats()
				n0 := entries()
				for _, term := range terms {
					stmt := "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING " + term
					for _, when := range []string{"before", "after"} {
						text, err := ExplainQuery(stmt, cat, Options{})
						if err != nil {
							t.Fatal(err)
						}
						if !strings.Contains(text, bypass) {
							t.Errorf("%s: EXPLAIN %s the run missing %q:\n%s", stmt, when, bypass, text)
						}
						run(stmt)
					}
				}
				if h, m, c := resultcache.Stats(); h != h0 || m != m0 || c != c0 || entries() != n0 {
					t.Fatalf("WHERE-scoped statements reached the result cache: hits %d→%d misses %d→%d carries %d→%d entries %d→%d",
						h0, h, m0, m, c0, c, n0, entries())
				}
			}
			whole := func() {
				t.Helper()
				for _, term := range terms {
					run("SELECT * FROM pts PREFERRING " + term)
				}
			}
			scoped()
			whole() // cold: one miss and one stored entry per term and shard
			whole() // warm: one hit per term and shard
			per := uint64(len(terms) * shards)
			if h, m, _ := resultcache.Stats(); h != per || m != per || entries() != int(per) {
				t.Fatalf("WHERE-less terms: hits %d misses %d entries %d, want %d each", h, m, entries(), per)
			}
			row := relation.Row{0.41, 0.63, 0.0, 0.0} // beats every answer so far
			if s, ok := tbl.(*relation.Sharded); ok {
				if err := s.Insert(row); err != nil {
					t.Fatal(err)
				}
			} else {
				pts.MustInsert(row)
			}
			if _, _, c := resultcache.Stats(); c != uint64(len(terms)) {
				t.Fatalf("the Insert carried %d entries, want one per term (%d) on the shard it went to", c, len(terms))
			}
			scoped()
			whole() // served by the carried entries and the untouched shards
			if h, m, _ := resultcache.Stats(); h != 2*per || m != per {
				t.Fatalf("after the Insert: hits %d misses %d, want %d and %d", h, m, 2*per, per)
			}
		})
	}
}

// sortedLines sorts a rendering's lines, for order-free comparison.
func sortedLines(s string) string {
	lines := strings.SplitAfter(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "")
}
