package psql

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

func TestExplainPipeline(t *testing.T) {
	plan, err := ExplainQuery(`SELECT oid, price FROM car WHERE make = 'Opel'
		PREFERRING LOWEST(price) AND LOWEST(mileage)
		CASCADE HIGHEST(power)
		ORDER BY price TOP 3`, testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scan car (5 rows)",
		"hard selection: make = 'Opel'",
		"BMO σ[P]",
		"LOWEST(price) ⊗ LOWEST(mileage)",
		"cascade BMO σ[P], P = HIGHEST(power)",
		"sort by price",
		"truncate to TOP 3",
		"project oid, price",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainReportsAutoAlgorithm(t *testing.T) {
	plan, err := ExplainQuery("SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Five rows of a flat term: auto resolves to the window pass, by the
	// planner's comparison of the two passes.
	if !strings.Contains(plan, "[algorithm bnl, compiled evaluation]") {
		t.Errorf("plan must state the resolved algorithm:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT * FROM car PREFERRING LOWEST(price)", testCatalog(), Options{Algorithm: engine.Naive})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "[algorithm naive, compiled evaluation]") {
		t.Errorf("explicit algorithm must be reported:\n%s", plan)
	}
}

func TestExplainShowsSimplification(t *testing.T) {
	// color = 'x' PRIOR TO color <> 'y' has identical attribute sets:
	// Prop 4a collapses the term, and the plan must say so.
	plan, err := ExplainQuery("SELECT * FROM car PREFERRING color = 'red' PRIOR TO color <> 'gray'", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "simplified from") {
		t.Errorf("plan must note algebraic simplification:\n%s", plan)
	}
	if !strings.Contains(plan, "P = POS(color, {red})") {
		t.Errorf("plan must show the simplified term:\n%s", plan)
	}
}

func TestExplainRankedModel(t *testing.T) {
	plan, err := ExplainQuery("SELECT oid FROM car PREFERRING RANK(HIGHEST(power), LOWEST(price)) TOP 3", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "ranked query model (k-best): TOP 3") {
		t.Errorf("ranked model not recognized:\n%s", plan)
	}
}

func TestExplainGroupingAndSkylineAndButOnly(t *testing.T) {
	plan, err := ExplainQuery(`SELECT oid FROM car
		PREFERRING price AROUND 40000 GROUPING BY make
		BUT ONLY DISTANCE(price) <= 1000`, testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "groupby {make}") {
		t.Errorf("grouping missing:\n%s", plan)
	}
	if !strings.Contains(plan, "BUT ONLY DISTANCE(price) <= 1000") {
		t.Errorf("quality filter missing:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT * FROM car SKYLINE OF price MIN, power MAX", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "SKYLINE OF price MIN, power MAX") {
		t.Errorf("skyline step missing:\n%s", plan)
	}
}

func TestExplainStatementThroughRun(t *testing.T) {
	res, err := Run("EXPLAIN SELECT oid FROM car PREFERRING LOWEST(price)", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() < 3 {
		t.Fatalf("plan relation has %d rows", res.Len())
	}
	v, _ := res.Tuple(0).Get("plan")
	if !strings.Contains(v.(string), "scan car") {
		t.Errorf("first plan line = %v", v)
	}
	// EXPLAIN round-trips through Query.String().
	q, err := Parse("EXPLAIN SELECT * FROM car")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(q.String(), "EXPLAIN SELECT") {
		t.Errorf("rendering: %s", q)
	}
}

func TestExplainErrors(t *testing.T) {
	if _, err := ExplainQuery("SELECT * FROM missing", testCatalog(), Options{}); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := ExplainQuery("SELECT nope FROM car", testCatalog(), Options{}); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestExplainSurfacesCostBasedPlan(t *testing.T) {
	plan, err := ExplainQuery("SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Auto resolution now goes through the cost-based planner, whose
	// decision is inlined under the BMO step.
	for _, want := range []string{"plan: n=5", "shape=keyed", "because:"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan detail missing %q:\n%s", want, plan)
		}
	}
	// Explicit algorithms skip planning (nothing to decide).
	plan, err = ExplainQuery("SELECT * FROM car PREFERRING LOWEST(price)", testCatalog(), Options{Algorithm: engine.BNL})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "because:") {
		t.Errorf("explicit algorithm must not emit planner output:\n%s", plan)
	}
}

func TestExplainSkylineSurfacesPlan(t *testing.T) {
	plan, err := ExplainQuery("SELECT * FROM car SKYLINE OF price MIN, power MAX", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SKYLINE OF price MIN, power MAX", "plan: n=5", "because:"} {
		if !strings.Contains(plan, want) {
			t.Errorf("skyline plan detail missing %q:\n%s", want, plan)
		}
	}
}

// TestExplainReportsCacheStatus pins the cache and bind fields of
// EXPLAIN: the WHERE clause binds at explain time to report its access
// path and selectivity, the PREFERRING step reports the rows it binds —
// the same before and after a run, since nothing keeps a bound form — and
// the result cache bypasses the WHERE-scoped statement, while its
// WHERE-less form turns from cold to hit once it has run. Without a WHERE
// the bind line also names the sorted walk over the columns' value
// orders: the scoped run's cut marks price, so the first WHERE-less
// EXPLAIN waits for mileage's order; once both are kept the walk over
// five rows gives up past its limit of one.
func TestExplainReportsCacheStatus(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	cat := testCatalog() // one catalog: cache keys are relation identities
	scoped := `SELECT oid FROM car WHERE price <= 45000
		PREFERRING LOWEST(price) AND LOWEST(mileage)`
	whole := "SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)"
	for _, when := range []string{"cold", "after a run"} {
		result := "(result cache: cold — maxima stored at first execution)"
		bind := "(bind: full over 5 rows — no value order kept yet for mileage)"
		if when != "cold" {
			result = "(result cache: hit — memoized maxima served, no evaluation)"
			bind = "(bind: full over 5 rows — sorted walk over price, mileage gave up past 1 rows)"
		}
		for _, c := range []struct {
			query string
			wants []string
		}{
			{scoped, []string{
				"hard selection: price <= 45000 [vectorized, 4 of 5 rows]\n",
				"(bind: full over 5 rows)",
				"eval=compiled bind=full dominance=",
				"(result cache: bypass — WHERE-scoped, never cached)",
			}},
			{whole, []string{bind, "eval=compiled bind=full dominance=", result}},
		} {
			query, wants := c.query, c.wants
			plan, err := ExplainQuery(query, cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range wants {
				if !strings.Contains(plan, want) {
					t.Errorf("%s EXPLAIN missing %q:\n%s", when, want, plan)
				}
			}
			if _, err := Run(query, cat, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExplainReportsStreamQualityAndRankedModes pins the PR 4 EXPLAIN
// fields: the streaming delivery mode of single-soft-clause queries, the
// BUT ONLY evaluation mode, and the ranked model's scoring mode.
func TestExplainReportsStreamQualityAndRankedModes(t *testing.T) {
	plan, err := ExplainQuery("SELECT oid FROM car WHERE price <= 45000 PREFERRING LOWEST(price) AND LOWEST(mileage)", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "(streaming: progressive — compiled keys over the WHERE index list)") {
		t.Errorf("keyed single-clause query must report progressive streaming:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT * FROM car PREFERRING EXPLICIT(color, ('blue', 'red'))", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "(streaming: batch fallback — no compatible sort key)") {
		t.Errorf("keyless term must report the batch fallback:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT * FROM car PREFERRING LOWEST(price) ORDER BY price", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "(streaming:") {
		t.Errorf("ORDER BY forces batch execution; no streaming line expected:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT * FROM car SKYLINE OF price MIN, power MAX", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No WHERE clause: the stream visits the whole relation, so the note
	// must not claim an index list.
	if !strings.Contains(plan, "(streaming: progressive — compiled keys)") {
		t.Errorf("skyline clause must report progressive streaming:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT oid FROM car PREFERRING price AROUND 40000 BUT ONLY DISTANCE(price) <= 1000", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "BUT ONLY DISTANCE(price) <= 1000 [compiled vector scan") {
		t.Errorf("built-in quality filter must report the compiled mode:\n%s", plan)
	}
	plan, err = ExplainQuery("SELECT oid FROM car PREFERRING RANK(HIGHEST(power), LOWEST(price)) TOP 3", testCatalog(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "[compiled scoring]") {
		t.Errorf("compilable RANK must report compiled scoring:\n%s", plan)
	}
}

// TestExplainPlansAtFilteredCardinality: the inlined cost plan must be
// computed for the post-WHERE candidate count — the decision execution's
// BMOIndicesOn actually makes — not the base relation size.
func TestExplainPlansAtFilteredCardinality(t *testing.T) {
	big := relation.New("big", relation.MustSchema(
		relation.Column{Name: "price", Type: relation.Int},
		relation.Column{Name: "mileage", Type: relation.Int},
	))
	for i := 0; i < 600; i++ {
		big.MustInsert(relation.Row{int64(i), int64(600 - i)})
	}
	cat := Catalog{"big": big}
	plan, err := ExplainQuery(`EXPLAIN SELECT * FROM big WHERE price < 10
		PREFERRING LOWEST(price) AND LOWEST(mileage)`, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "10 of 600 rows") {
		t.Fatalf("selectivity missing:\n%s", plan)
	}
	if !strings.Contains(plan, "plan: n=10 ") {
		t.Fatalf("inlined plan must use the filtered cardinality (n=10):\n%s", plan)
	}
}

// TestExplainPlansCascadeAtItsInput: a CASCADE step runs over what the
// step before it kept, not over the table. After a one-attribute AROUND
// step over 20 000 rows (an estimated handful of maxima), the cascaded
// RANK term — keyed, outside the flat fragment — reports the small-input
// choice, the sorted pass by the shape heuristic, where the same term over
// the whole table is costed and keeps the window pass.
func TestExplainPlansCascadeAtItsInput(t *testing.T) {
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	stmt := "SELECT * FROM pts PREFERRING d4 AROUND 0.5 CASCADE RANK(LOWEST(d1), LOWEST(d2))"
	text, err := ExplainQuery(stmt, Catalog{"pts": pts}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := pref.RankWeighted([]float64{1, 1}, pref.LOWEST("d1"), pref.LOWEST("d2"))
	if err != nil {
		t.Fatal(err)
	}
	small, whole := engine.ResolveAuto(ranked, 10), engine.ResolveAuto(ranked, pts.Len())
	if !strings.Contains(small.Explain(), "input below 256 rows") || strings.Contains(whole.Explain(), "input below 256 rows") ||
		small.Algorithm == whole.Algorithm {
		t.Fatalf("test premise: the term plans %s below 256 rows and %s over the whole table\n%s%s",
			small.Algorithm, whole.Algorithm, small.Explain(), whole.Explain())
	}
	if want := "cascade BMO σ[P], P = " + ranked.String() + " [algorithm " + small.Algorithm.String() + "]"; !strings.Contains(text, want) {
		t.Errorf("missing %q:\n%s", want, text)
	}
}

// TestExplainShardedDescribesWhatRuns: over a sharded table EXPLAIN must
// describe the one pipeline every caller runs. The inlined sharded plan
// carries no sharded-vs-flat route, and after a plain Run — no context,
// default options — the result-cache line reports the state that
// execution left behind: hit on all shards for a WHERE-less statement,
// bypass for its WHERE-scoped form.
func TestExplainShardedDescribesWhatRuns(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	_, shardCat := shardedCatalog(t, 2500, 4, 41)
	query := "SELECT oid FROM car WHERE price <= 60000 PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	whole := "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	var text string
	for _, c := range []struct{ query, result string }{
		{whole, "result cache: hit on all shards"},
		{query, "result cache: bypass — WHERE-scoped, never cached"},
	} {
		if _, err := Run(c.query, shardCat, Options{}); err != nil {
			t.Fatal(err)
		}
		var err error
		if text, err = ExplainQuery(c.query, shardCat, Options{}); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"(bind: ", c.result} {
			if !strings.Contains(text, want) {
				t.Errorf("EXPLAIN after a plain Run missing %q:\n%s", want, text)
			}
		}
	}
	planLine := ""
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "sharded plan:") {
			planLine = line
		}
	}
	if !strings.Contains(planLine, "shards=4") || !strings.Contains(planLine, "merge=fold dominance=") {
		t.Fatalf("EXPLAIN missing the sharded plan line:\n%s", text)
	}
	if strings.Contains(planLine, "→") {
		t.Errorf("sharded plan line still carries a route: %q", planLine)
	}
	if strings.Contains(text, "flatten") || strings.Contains(text, "vs flat") {
		t.Errorf("EXPLAIN still weighs a flat route:\n%s", text)
	}
}

// TestExplainBindScopeAgreesWithWhatRan: the bind line must name the
// bind scope execution picks, and the plan line the dominance comparator
// it compares through, before and after a plain Run, on every layout — a
// flat table, which runs as one shard, reads exactly like a table sharded
// into one. A selective statement binds over its gathered candidates and
// bypasses the result cache, so the repeat reports the same scope and the
// same bypass; an unfiltered statement binds the whole relation, while
// the result cache turns from cold to hit — and its run marks mileage and
// horsepower for value orders, so EXPLAIN after it names the sorted walk
// the statement's next cold run takes over the orders that run builds.
func TestExplainBindScopeAgreesWithWhatRan(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	flatCat, shardCat := shardedCatalog(t, 12000, 2, 43)
	oneShard, err := relation.ShardRelation(flatCat["car"].(*relation.Relation), 1, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	selective := "SELECT oid FROM car WHERE price <= 9000 PREFERRING mileage AROUND 60000 AND HIGHEST(horsepower)"
	unfiltered := "SELECT oid FROM car PREFERRING mileage AROUND 70000 AND HIGHEST(horsepower)"
	for _, c := range []struct {
		name   string
		cat    Catalog
		shards uint64
		// what EXPLAIN must say for the selective statement and for the
		// unfiltered one, before and after the run alike
		gathered, full string
	}{
		{"flat", flatCat, 1, "(bind: gathered ", "(bind: full over 12000 rows)"},
		{"one shard", Catalog{"car": oneShard}, 1, "(bind: gathered ", "(bind: full over 12000 rows)"},
		{"sharded", shardCat, 2, "(bind: gathered ", "(bind: full over 12000 rows on 2/2 shards)"},
	} {
		explain := func(query string) string {
			text, err := ExplainQuery(query, c.cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return text
		}
		mustContain := func(when, text string, wants ...string) {
			t.Helper()
			for _, want := range wants {
				if !strings.Contains(text, want) {
					t.Errorf("%s: %s EXPLAIN missing %q:\n%s", c.name, when, want, text)
				}
			}
		}
		// AROUND ⊗ HIGHEST is in the flat fragment with a two-leaf head
		// group: with the AVX2 kernel on every pass of it compares on score
		// blocks — the per-shard window passes on the blocks and their
		// mirror, the cross-shard fold in two sweeps — and on records
		// otherwise.
		window := engine.DominanceFlat
		if engine.AVX2Enabled() {
			window = engine.DominanceBlocksAVX2
		}
		merge := engine.ShardMergeMode(pref.Pareto(pref.AROUND("mileage", 60000), pref.HIGHEST("horsepower")))
		ranAsSaid := func(when string, before [3]uint64) {
			t.Helper()
			var want [3]uint64
			want[window] = c.shards
			if c.shards > 1 {
				want[mergeComparator(merge)]++
			}
			if got := passesSince(before); got != want {
				t.Errorf("%s: %s: passes per comparator (tree, flat, blocks) %v, want %v: one window pass per shard on %s, plus the fold on %s",
					c.name, when, got, want, window, merge)
			}
		}
		mustContain("cold selective", explain(selective), c.gathered, "eval=compiled bind=gathered dominance="+window.String(),
			"SFS keys: one pass sums 2 score column(s) over the ", "result cache: bypass")
		g0 := engine.GatheredBinds()
		before := passesSince([3]uint64{})
		if _, err := Run(selective, c.cat, Options{}); err != nil {
			t.Fatal(err)
		}
		ranAsSaid("selective run", before)
		if engine.GatheredBinds() != g0+c.shards {
			t.Errorf("%s: selective run: gathered %d→%d, want one gathered bind per shard",
				c.name, g0, engine.GatheredBinds())
		}
		mustContain("selective after run", explain(selective), c.gathered, "bind=gathered dominance="+window.String(), "result cache: bypass")

		mustContain("cold unfiltered", explain(unfiltered), c.full, "eval=compiled bind=full dominance="+window.String(),
			"SFS keys: one pass sums 2 score column(s) over the ", "result cache: cold")
		before = passesSince([3]uint64{})
		if _, err := Run(unfiltered, c.cat, Options{}); err != nil {
			t.Fatal(err)
		}
		ranAsSaid("unfiltered run", before)
		if engine.GatheredBinds() != g0+c.shards {
			t.Errorf("%s: an unfiltered statement must not bind gathered", c.name)
		}
		mustContain("unfiltered after run", explain(unfiltered), "(bind: gathered ", " — sorted walk over mileage, horsepower)",
			"eval=compiled bind=gathered dominance="+window.String(), "result cache: hit")
		// A selective statement sharing a term an earlier statement bound
		// gathers its own candidates all the same.
		shared := "SELECT oid FROM car WHERE price <= 9000 PREFERRING mileage AROUND 70000 AND HIGHEST(horsepower)"
		mustContain("selective over a term bound before", explain(shared), c.gathered)
		if c.shards > 1 {
			mustContain("sharded merge", explain(selective), "merge=fold dominance="+merge, "merge: "+merge+" fold over ≈", "cross-shard pairs")
		}
	}

	// The algorithm is part of what EXPLAIN promises: a Pareto group whose
	// window is a large share of its candidates plans the sorted pass —
	// and every pass of the run, per shard and fold, is a one-way pass on
	// the comparator the plan line names, before and after.
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	ptsSharded, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	ptsOne, err := relation.ShardRelation(pts, 1, relation.ByHash("d1"))
	if err != nil {
		t.Fatal(err)
	}
	pareto3 := "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING d1 AROUND 0.41 AND d2 AROUND 0.63 AND LOWEST(d3)"
	sorted := engine.ShardMergeMode(pref.Pareto(pref.AROUND("d1", 0.41), pref.LOWEST("d3")))
	for _, c := range []struct {
		name   string
		cat    Catalog
		passes uint64
	}{{"flat", Catalog{"pts": pts}, 1}, {"one shard", Catalog{"pts": ptsOne}, 1}, {"sharded", Catalog{"pts": ptsSharded}, 3}} {
		for _, when := range []string{"before", "after"} {
			text, err := ExplainQuery(pareto3, c.cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"[algorithm sfs", "bind=gathered dominance=" + sorted, "→ sfs", "a sorted-filter pair on " + sorted} {
				if !strings.Contains(text, want) {
					t.Errorf("pareto3 %s, EXPLAIN %s the run, missing %q:\n%s", c.name, when, want, text)
				}
			}
			if when == "after" {
				break
			}
			before := passesSince([3]uint64{})
			if _, err := Run(pareto3, c.cat, Options{}); err != nil {
				t.Fatal(err)
			}
			want := [3]uint64{}
			want[mergeComparator(sorted)] = c.passes
			if got := passesSince(before); got != want {
				t.Errorf("pareto3 %s: passes per comparator (tree, flat, blocks) %v, want %v: EXPLAIN said sfs on %s", c.name, got, want, sorted)
			}
		}
	}
}

// TestPlannerRoutesChainProducts: the SKYLINE OF fragment — Pareto
// products of LOWEST/HIGHEST chains, written as SKYLINE OF … MIN and as an
// alternating LOWEST/HIGHEST PREFERRING — over anti-correlated,
// independent and correlated points, d = 2–5, n = 300, 5 000 and 20 000.
// Auto returns what the BNL oracle returns, and the EXPLAIN plan line
// names what ran: its algorithm on its dominance= comparator,
// DominanceRuns counting exactly one pass, on that comparator alone.
//
// The oracle is the window pass over flat records, confirmed by the
// interpreted window pass wherever that one stays affordable: it asks the
// interface path about every pair its window holds, n·|maxima| of them —
// minutes on the anti-correlated all-MIN skylines of 1 900–16 900 rows.
// Above interpretedPairs the flat pass stands alone; TestFlatKernelRoutes
// and the agreement batteries hold it to the interpreted one.
func TestPlannerRoutesChainProducts(t *testing.T) {
	const interpretedPairs = 4_000_000
	resultcache.Reset()
	defer resultcache.Reset()
	planLine := regexp.MustCompile(`(?m)plan: .* dominance=(\S+) .*→ (\w+)$`)
	routes, interpreted := map[string]int{}, 0
	for _, dist := range []workload.Distribution{workload.AntiCorrelated, workload.Independent, workload.Correlated} {
		for d := 2; d <= 5; d++ {
			var mins, alternating []string
			var minTerm, altTerm []pref.Preference
			for k := 1; k <= d; k++ {
				attr := fmt.Sprintf("d%d", k)
				mins = append(mins, attr+" MIN")
				minTerm = append(minTerm, pref.LOWEST(attr))
				if k%2 == 0 {
					alternating = append(alternating, "HIGHEST("+attr+")")
					altTerm = append(altTerm, pref.HIGHEST(attr))
				} else {
					alternating = append(alternating, "LOWEST("+attr+")")
					altTerm = append(altTerm, pref.LOWEST(attr))
				}
			}
			for _, n := range []int{300, 5000, 20000} {
				pts := workload.Numeric(n, d, dist, int64(100*n+d))
				cat := Catalog{"pts": pts}
				for _, c := range []struct {
					stmt string
					p    pref.Preference
				}{
					{"SELECT * FROM pts SKYLINE OF " + strings.Join(mins, ", "), pref.ParetoAll(minTerm...)},
					{"SELECT * FROM pts PREFERRING " + strings.Join(alternating, " AND "), pref.ParetoAll(altTerm...)},
				} {
					maxima := engine.BMOIndicesMode(c.p, pts, engine.BNL, engine.EvalCompiled)
					if n*len(maxima) <= interpretedPairs {
						interpreted++
						if slow := engine.BMOIndicesMode(c.p, pts, engine.BNL, engine.EvalInterpreted); !slices.Equal(slow, maxima) {
							t.Fatalf("%s n=%d: %s: the flat window pass keeps %d rows, the interpreted one %d", dist, n, c.stmt, len(maxima), len(slow))
						}
					}
					want := rowSet(pts.Pick(maxima))
					what := fmt.Sprintf("%s n=%d: %s", dist, n, c.stmt)
					text, err := ExplainQuery(c.stmt, cat, Options{})
					if err != nil {
						t.Fatal(err)
					}
					m := planLine.FindStringSubmatch(text)
					if m == nil {
						t.Fatalf("%s: no plan line:\n%s", what, text)
					}
					passes := [3]uint64{}
					passes[mergeComparator(m[1])] = 1
					before := passesSince([3]uint64{})
					got, err := Run(c.stmt, cat, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if ran := passesSince(before); ran != passes {
						t.Errorf("%s: passes per comparator (tree, flat, blocks) %v, want %v for %s on %s", what, ran, passes, m[2], m[1])
					}
					if !maps.Equal(rowSet(got), want) {
						t.Errorf("%s: %d rows, not the BNL oracle's %d", what, got.Len(), len(maxima))
					}
					routes[fmt.Sprintf("%s on %s", m[2], m[1])]++
				}
			}
		}
	}
	t.Logf("routes: %v; interpreted oracle on %d of 72 statements", routes, interpreted)
}

// rowSet counts a relation's rows by their rendering.
func rowSet(r *relation.Relation) map[string]int {
	out := make(map[string]int, r.Len())
	for i := 0; i < r.Len(); i++ {
		out[fmt.Sprint(r.Row(i))]++
	}
	return out
}

// passesSince returns the compiled passes that ran per comparator since
// the given reading (the zero reading: since process start).
func passesSince(before [3]uint64) [3]uint64 {
	var out [3]uint64
	for d := range out {
		out[d] = engine.DominanceRuns(engine.Dominance(d)) - before[d]
	}
	return out
}

// mergeComparator maps a comparator's EXPLAIN label back to its counter.
func mergeComparator(label string) engine.Dominance {
	for d := engine.DominanceTree; d <= engine.DominanceBlocksAVX2; d++ {
		if d.String() == label {
			return d
		}
	}
	panic("no comparator is labelled " + label)
}

// TestExplainWorkloadStatementsAvoidTheTree: every statement shape the
// served benchmark sends — the hot pool's AROUND ⊗ HIGHEST, the three
// cold_skyline shapes over two range shards, durable_paged's selective
// read over hash shards — is answered by the flat record kernel or the
// AVX2 score blocks: EXPLAIN says so on the plan line and on the merge
// line, and running them leaves the predicate tree's pass counter where
// it was — the hot pool's flat table through the one route every table
// takes, as a table of one shard does. A term outside the fragment still
// reports (and takes) the tree. One shape per workload is pinned whole:
// its EXPLAIN text equals testdata/explain/<shape>.<comparator>.txt, the
// text of one P, on every machine but for the fan-out's figures.
func TestExplainWorkloadStatementsAvoidTheTree(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	ptsSharded, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	cars := workload.Cars(20000, 7)
	carsSharded, err := relation.ShardRelation(cars, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	carsOne, err := relation.ShardRelation(cars, 1, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cat  Catalog
		stmt string
	}{
		{"hotset_read", Catalog{"car": cars}, "SELECT oid FROM car PREFERRING price AROUND 14500 AND HIGHEST(horsepower)"},
		{"hotset_read/one-shard", Catalog{"car": carsOne}, "SELECT oid FROM car PREFERRING price AROUND 14500 AND HIGHEST(horsepower)"},
		{"cold_skyline/pareto3", Catalog{"pts": ptsSharded}, "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING d1 AROUND 0.41 AND d2 AROUND 0.63 AND LOWEST(d3)"},
		{"cold_skyline/pareto-prior-chain", Catalog{"pts": ptsSharded}, "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING (d1 AROUND 0.41 AND LOWEST(d2)) PRIOR TO LOWEST(d3)"},
		{"cold_skyline/chain-prior-pareto", Catalog{"pts": ptsSharded}, "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND 0.41 AND LOWEST(d2))"},
		{"durable_paged", Catalog{"car": carsSharded}, "SELECT * FROM car WHERE price <= 9000 PREFERRING mileage AROUND 60000 AND HIGHEST(horsepower)"},
	} {
		text, err := ExplainQuery(c.stmt, c.cat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		switch c.name {
		case "hotset_read", "cold_skyline/pareto3", "durable_paged":
			leg := engine.DominanceFlat.String()
			if engine.AVX2Enabled() {
				leg = engine.DominanceBlocksAVX2.String()
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "explain", strings.ReplaceAll(c.name, "/", "_")+"."+leg+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if maskFanout(text) != maskFanout(string(golden)) {
				t.Errorf("%s: EXPLAIN is not the pinned text on %s:\n got:\n%s\nwant:\n%s", c.name, leg, text, golden)
			}
		}
		fields := 0
		for _, line := range strings.Split(text, "\n") {
			if !strings.Contains(line, "plan:") {
				continue
			}
			switch {
			case strings.Contains(line, "dominance=flat"), strings.Contains(line, "dominance=blocks-avx2"):
				fields++
			default:
				t.Errorf("%s: plan line without a record or block comparator: %q", c.name, line)
			}
		}
		// One per-shard plan line, plus the sharded plan line's merge
		// comparator when there are shards to merge.
		want := 1
		if s, err := c.cat.lookup(strings.Fields(c.stmt[strings.Index(c.stmt, "FROM ")+5:])[0]); err == nil && s.NumShards() > 1 {
			want = 2
		}
		if fields != want {
			t.Errorf("%s: %d dominance= fields on the plan lines, want %d:\n%s", c.name, fields, want, text)
		}
		tree0 := engine.DominanceRuns(engine.DominanceTree)
		if _, err := Run(c.stmt, c.cat, Options{}); err != nil {
			t.Fatal(err)
		}
		if tree := engine.DominanceRuns(engine.DominanceTree); tree != tree0 {
			t.Errorf("%s: %d passes walked the predicate tree", c.name, tree-tree0)
		}
	}
	outside := "SELECT oid FROM car PREFERRING EXPLICIT(color, ('blue', 'red'), ('gray', 'blue')) AND LOWEST(price)"
	text, err := ExplainQuery(outside, Catalog{"car": cars}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "dominance=tree") {
		t.Errorf("an EXPLICIT ⊗ term must report the tree:\n%s", text)
	}
	tree0 := engine.DominanceRuns(engine.DominanceTree)
	if _, err := Run(outside, Catalog{"car": cars}, Options{}); err != nil {
		t.Fatal(err)
	}
	if engine.DominanceRuns(engine.DominanceTree) == tree0 {
		t.Error("an EXPLICIT ⊗ term must compare through the tree")
	}
}

// TestExplainAccessPathAgreesWithWhatRan: the hard-selection line names
// the access path of the selection execution reads on the cold_skyline
// shape (two range shards, an unclustered d4 cut) and the durable_paged
// one (hash shards in a store, four inserts after every statement). A
// column's first request scans and marks the column; from the second on
// each shard reads the cut out of the column's value order, across
// inserts too (the order is inherited with a short tail). EXPLAIN's bind
// is a probe, so it names the path the next run takes and changes
// nothing: EXPLAIN before a run names the path that run reads, and
// EXPLAIN after it names the path a re-run reads — at the column's first
// cut that is the order, because the run marked the column. What a run
// read is observed through filter.OrderedReads, shard by shard.
func TestExplainAccessPathAgreesWithWhatRan(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	ptsSharded, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PoolBytes: 64 << 10, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cars, err := relation.ShardRelation(workload.Cars(8000, 7), 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	paged, err := st.ImportTable(cars)
	if err != nil {
		t.Fatal(err)
	}
	more := workload.Cars(64, 8)
	for _, c := range []struct {
		name, stmt string
		cat        Catalog
		cuts       []string
		writes     bool
	}{
		{"cold_skyline", "SELECT * FROM pts WHERE d4 <= %s PREFERRING d1 AROUND 0.41 AND d2 AROUND 0.63 AND LOWEST(d3)",
			Catalog{"pts": ptsSharded}, []string{"0.031", "0.047", "0.022", "0.058"}, false},
		{"durable_paged", "SELECT * FROM car WHERE price <= %s PREFERRING mileage AROUND 60000 AND HIGHEST(horsepower)",
			Catalog{"car": paged}, []string{"9000", "11500", "8200", "10400"}, true},
	} {
		s, err := c.cat.lookup(strings.Fields(c.stmt[strings.Index(c.stmt, "FROM ")+5:])[0])
		if err != nil {
			t.Fatal(err)
		}
		for k, cut := range c.cuts {
			stmt := fmt.Sprintf(c.stmt, cut)
			q, err := Parse(stmt)
			if err != nil {
				t.Fatal(err)
			}
			ordered := "ordered (driver " + q.Where.String() + ")"
			line := func(mode string) string { return "hard selection: " + q.Where.String() + " [" + mode + ", " }
			explain := func(when, mode string) {
				t.Helper()
				text, err := ExplainQuery(stmt, c.cat, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(text, line(mode)) {
					t.Errorf("%s cut %d, EXPLAIN %s the run: want %q in\n%s", c.name, k, when, line(mode), text)
				}
			}
			// run executes the statement (WHERE-scoped, never from the
			// result cache) and checks that every shard read its
			// selection by mode.
			run := func(when, mode string) {
				t.Helper()
				reads := filter.OrderedReads()
				if _, err := Run(stmt, c.cat, Options{}); err != nil {
					t.Fatal(err)
				}
				want := uint64(0)
				if mode == ordered {
					want = uint64(s.NumShards())
				}
				if got := filter.OrderedReads() - reads; got != want {
					t.Errorf("%s cut %d, %s: %d of %d shards read the order, want %d (%s)", c.name, k, when, got, s.NumShards(), want, mode)
				}
			}
			before := ordered
			if k == 0 {
				before = "vectorized" // the column's first request
			}
			if k != 2 { // the third cut runs without being EXPLAINed first
				explain("before", before)
			}
			run("the run", before)
			explain("after", ordered)
			run("a re-run", ordered)
			if c.writes {
				for j := 0; j < 4; j++ {
					if err := paged.Insert(more.Row(4*k + j)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// fanoutFigures matches what EXPLAIN words from the width of the shard
// fan-out, relation.Procs(): the sharded header's fanout=, and the fan-out
// and the waves' estimated cost on its because: lines.
var fanoutFigures = regexp.MustCompile(`fanout=\d+|fan-out \d+|estimated cost ≈\S+ \(\d+ wave\(s\)`)

// maskFanout blanks the fan-out's figures out of an EXPLAIN text.
func maskFanout(text string) string { return fanoutFigures.ReplaceAllString(text, "‹fan-out›") }

// TestPlanIgnoresProcs: a plan is a function of the statement and its
// data, not of the machine. The served statement shapes — the three
// cold_skyline shapes over two range shards, the hotset_read and
// durable_paged readers over the car market — and a 20 000-row
// anti-correlated chain product (the shape a core-count-dependent planner
// would split) plan byte-identically at one and at four Ps: the engine's
// plan text, and psql EXPLAIN's step and per-shard lines. Only the shard
// fan-out's figures follow the Ps.
func TestPlanIgnoresProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	ptsSharded, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	cars := workload.Cars(20000, 20020820)
	carsSharded, err := relation.ShardRelation(cars, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	chain := workload.Numeric(20000, 2, workload.AntiCorrelated, 7)
	plans := []struct {
		rel *relation.Relation
		p   pref.Preference
	}{
		{pts, pref.ParetoAll(pref.AROUND("d1", 0.41), pref.AROUND("d2", 0.63), pref.LOWEST("d3"))},
		{pts, pref.Prioritized(pref.Pareto(pref.AROUND("d1", 0.41), pref.LOWEST("d2")), pref.LOWEST("d3"))},
		{pts, pref.Prioritized(pref.LOWEST("d3"), pref.Pareto(pref.AROUND("d1", 0.41), pref.LOWEST("d2")))},
		{cars, pref.Pareto(pref.AROUND("price", 14500), pref.HIGHEST("horsepower"))},
		{cars, pref.Pareto(pref.AROUND("mileage", 60000), pref.HIGHEST("horsepower"))},
		{chain, pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))},
	}
	statements := []struct {
		cat  Catalog
		stmt string
	}{
		{Catalog{"pts": ptsSharded}, "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING d1 AROUND 0.41 AND d2 AROUND 0.63 AND LOWEST(d3)"},
		{Catalog{"pts": ptsSharded}, "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING (d1 AROUND 0.41 AND LOWEST(d2)) PRIOR TO LOWEST(d3)"},
		{Catalog{"pts": ptsSharded}, "SELECT * FROM pts WHERE d4 <= 0.031 PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND 0.41 AND LOWEST(d2))"},
		{Catalog{"car": cars}, "SELECT oid FROM car PREFERRING price AROUND 14500 AND HIGHEST(horsepower)"},
		{Catalog{"car": carsSharded}, "SELECT * FROM car WHERE price <= 9000 PREFERRING mileage AROUND 60000 AND HIGHEST(horsepower)"},
		{Catalog{"pts": chain}, "SELECT * FROM pts SKYLINE OF d1 MIN, d2 MIN"},
	}
	texts := func(procs int) []string {
		runtime.GOMAXPROCS(procs)
		var out []string
		for _, c := range plans {
			for _, n := range []int{200, c.rel.Len()} { // below and above the small-input cut
				out = append(out, engine.PlanWithInput(c.p, c.rel, n, engine.Env{}).Explain())
			}
		}
		for _, c := range statements {
			text, err := ExplainQuery(c.stmt, c.cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, maskFanout(text))
		}
		return out
	}
	one, four := texts(1), texts(4)
	for i := range one {
		if one[i] != four[i] {
			t.Errorf("plan %d differs between one and four Ps:\nat 1:\n%s\nat 4:\n%s", i, one[i], four[i])
		}
	}
}

// TestExplainSortedWalkAgreesWithWhatRan: the served hot pool over
// Cars(20000), flat and on two hash shards. On a fresh table EXPLAIN binds
// full; the pool's first statement marks price and horsepower and its
// second builds their value orders. From then on EXPLAIN names, per
// statement, the sorted walk the run takes — gathered over the rows the
// walk reaches, with their count, or full where the walk gives up past a
// quarter of the shard — the run makes exactly one gathered bind per
// walked shard, and EXPLAIN after the run reads the same but for the
// result cache line.
func TestExplainSortedWalkAgreesWithWhatRan(t *testing.T) {
	resultcache.Reset()
	defer resultcache.Reset()
	sharded, err := relation.ShardRelation(workload.Cars(20000, 7), 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	gathered := regexp.MustCompile(`\(bind: gathered (\d+) of (?:20000 rows|10000 rows on (1)/2 shards|20000 rows on (2)/2 shards) — sorted walk over price, horsepower[,)]`)
	gaveUp := regexp.MustCompile(`full over (?:20000 rows|10000 rows on 1/2 shards|20000 rows on 2/2 shards) — sorted walk over price, horsepower gave up past (?:5000 rows\)|2500 rows on 1/2 shards\)|5000 rows on 2/2 shards\))`)
	cacheLine := regexp.MustCompile(`(?m)^ *\(result cache: .*\n`)
	for _, c := range []struct {
		name  string
		cat   Catalog
		fresh string
	}{
		{"flat", Catalog{"car": workload.Cars(20000, 7)}, "(bind: full over 20000 rows)\n"},
		{"two hash shards", Catalog{"car": sharded}, "(bind: full over 20000 rows on 2/2 shards)\n"},
	} {
		explain := func(stmt string) string {
			text, err := ExplainQuery(stmt, c.cat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return text
		}
		var walked, gaveUps int
		for k := 0; k < 64; k++ {
			stmt := fmt.Sprintf("SELECT oid FROM car PREFERRING price AROUND %d AND HIGHEST(horsepower)", 12000+k*500)
			before := explain(stmt)
			if k == 0 && !strings.Contains(before, c.fresh) {
				t.Fatalf("%s: a fresh table's EXPLAIN must bind full:\n%s", c.name, before)
			}
			shards := 0 // the shards EXPLAIN says walk
			m := gathered.FindStringSubmatch(before)
			if m != nil {
				shards = 1
				if m[3] == "2" {
					shards = 2
				}
				if rows := m[1]; rows == "0" || len(rows) > 4 {
					t.Fatalf("%s: %s: the walk reaches %s rows", c.name, stmt, rows)
				}
				walked++
			}
			if gaveUp.MatchString(before) {
				gaveUps++
			} else if m == nil && k >= 2 {
				t.Fatalf("%s: %s: EXPLAIN names no walk once the orders are kept:\n%s", c.name, stmt, before)
			}
			g0 := engine.GatheredBinds()
			if _, err := Run(stmt, c.cat, Options{}); err != nil {
				t.Fatal(err)
			}
			if d := int(engine.GatheredBinds() - g0); d != shards {
				t.Fatalf("%s: %s: %d gathered binds ran, EXPLAIN said %d walked shards:\n%s", c.name, stmt, d, shards, before)
			}
			if after := explain(stmt); k >= 2 && cacheLine.ReplaceAllString(after, "") != cacheLine.ReplaceAllString(before, "") {
				t.Fatalf("%s: %s: EXPLAIN changed over the run:\nbefore:\n%s\nafter:\n%s", c.name, stmt, before, after)
			}
		}
		t.Logf("%s: %d statements walked, %d gave up", c.name, walked, gaveUps)
		if walked == 0 || gaveUps == 0 {
			t.Fatalf("%s: the pool must both walk and give up: %d walked, %d gave up", c.name, walked, gaveUps)
		}
	}
}
