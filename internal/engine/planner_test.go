package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

// antiCorrelated builds an n-row relation whose two float columns trade off
// against each other, the workload that inflates BMO results.
func antiCorrelated(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("R", relation.MustSchema(
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		r.MustInsert(relation.Row{v + 0.1*rng.Float64(), 1 - v + 0.1*rng.Float64()})
	}
	return r
}

func TestPlannerSelectsParallelForLargeChainProduct(t *testing.T) {
	atProcs(t, 8)
	rng := rand.New(rand.NewSource(1))
	rel := antiCorrelated(rng, 20000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	pl := PlanWithInput(p, rel, rel.Len(), Env{})
	if pl.Shape != ShapeKeyed {
		t.Fatalf("shape = %s", pl.Shape)
	}
	if pl.Workers < 2 {
		t.Fatalf("large chain-product workload at 8 Ps must plan partitioned, got %s×%d\n%s", pl.Algorithm, pl.Workers, pl.Explain())
	}
	// The plan must execute to the exact BMO set.
	if !sameIndices(runPlan(pl, p, rel), BMOIndices(p, rel, BNL)) {
		t.Error("plan execution diverged from sequential BNL")
	}
}

func TestPlannerSequentialOnOneCPU(t *testing.T) {
	atProcs(t, 1)
	rng := rand.New(rand.NewSource(2))
	rel := antiCorrelated(rng, 5000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	pl := PlanWithInput(p, rel, rel.Len(), Env{})
	if pl.Workers != 1 {
		t.Errorf("one P must not plan partitioned, got %s×%d", pl.Algorithm, pl.Workers)
	}
	for _, c := range pl.Candidates {
		if c.Workers != 1 {
			t.Errorf("one P costed a %d-worker candidate\n%s", c.Workers, pl.Explain())
		}
	}
}

func TestPlannerSmallInputUsesShapeHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := antiCorrelated(rng, 50)
	// (A keyed term outside the flat fragment: flat terms compare their two
	// passes by cost instead, see the next test.)
	keyed := pref.Rank("F", pref.WeightedSum(1, 1), pref.LOWEST("d1"), pref.LOWEST("d2"))
	if pl := PlanWithInput(keyed, rel, rel.Len(), Env{}); pl.Algorithm != SFS {
		t.Errorf("small keyed input plans %s, want sfs", pl.Algorithm)
	}
	// POS compiles to a keyed weak order nowadays; an EXPLICIT graph stays a
	// genuinely general partial order with no compatible sort key.
	general := pref.MustEXPLICIT("d1", []pref.Edge{{Worse: 0.25, Better: 0.75}})
	if pl := PlanWithInput(general, rel, rel.Len(), Env{}); pl.Algorithm != BNL {
		t.Errorf("small general input plans %s, want bnl", pl.Algorithm)
	}
}

// TestPlannerSmallFlatInputComparesTheTwoPasses: the one cost difference
// the small-input heuristic does not call noise. A compiled flat term's
// window pass and sorted pass are both priced from the input alone — no
// statistics, whatever the bind scope, its sort key being one pass over the
// candidates' scores — and the cheaper one runs: a Pareto group, whose
// window grows with the input, sorts; a prioritized chain with a deciding
// head, whose window stays a handful of rows, does not. Keyed terms outside
// the fragment keep the shape heuristic.
func TestPlannerSmallFlatInputComparesTheTwoPasses(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(4))
	rel := antiCorrelated(rng, 4000)
	prior := pref.Prioritized(pref.LOWEST("d1"), pref.Pareto(pref.AROUND("d1", 0.4), pref.LOWEST("d2")))
	pl := PlanWithInput(prior, rel, 200, Env{})
	if pl.Bind != BindGathered || pl.Algorithm != BNL || pl.Dominance != DominanceFlat {
		t.Errorf("200 of 4000 candidates, prioritized flat term: bind=%s alg=%s dominance=%s; want gathered bnl flat", pl.Bind, pl.Algorithm, pl.Dominance)
	}
	group := pref.ParetoAll(pref.AROUND("d1", 0.4), pref.AROUND("d2", 0.6), pref.LOWEST("d1"))
	if pl := PlanWithInput(group, rel, 200, Env{}); pl.Bind != BindGathered || pl.Algorithm != SFS || pl.Dominance != dominanceOf(group, SFS) {
		t.Errorf("200 of 4000 candidates, one Pareto group: bind=%s alg=%s dominance=%s; want gathered sfs %s", pl.Bind, pl.Algorithm, pl.Dominance, dominanceOf(group, SFS))
	}
	rank := pref.Rank("F", pref.WeightedSum(1, 1), pref.HIGHEST("d1"), pref.HIGHEST("d2"))
	if pl := PlanWithInput(rank, rel, 200, Env{}); pl.Bind != BindGathered || pl.Algorithm != SFS {
		t.Errorf("200 of 4000 candidates, keyed term outside the fragment: bind=%s alg=%s; want gathered sfs", pl.Bind, pl.Algorithm)
	}
	BMOIndices(prior, rel, Auto) // binds and caches the whole-relation form
	if pl := PlanWithInput(prior, rel, 200, Env{}); pl.Bind != BindCached || pl.Algorithm != BNL {
		t.Errorf("with a cached form: bind=%s alg=%s; the comparison does not depend on the bind, want cached bnl", pl.Bind, pl.Algorithm)
	}
}

// TestPlannerRoutesColdShapes pins the route of every gated statement
// shape of the served benchmark, per shard, by cost alone: cold_skyline's
// Pareto group (a window of ≈90 of ≈300 candidates) plans the sorted pass
// on the one-way comparator, its two PRIOR TO shapes (a window of 1–15),
// durable_paged's statement (≈2 400 candidates, a handful of maxima) and
// hotset_read's whole-relation pool statement keep the window pass — on
// the score blocks with the AVX2 kernel on, except under the single-leaf
// head of LOWEST(d3) PRIOR TO …, which stays on records — and reports how
// often the result estimate, which the comparison rests on, would have
// routed the Pareto group the other way.
func TestPlannerRoutesColdShapes(t *testing.T) {
	atProcs(t, 1)
	ResetCompileCache()
	defer ResetCompileCache()
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	s, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	anchor := func() float64 { return 0.2 + 0.6*rng.Float64() }
	// The comparator a pass compares on: the score blocks when it may run
	// there and the AVX2 kernel is on, records otherwise.
	on := func(blocks bool) Dominance {
		if blocks && AVX2Enabled() {
			return DominanceBlocksAVX2
		}
		return DominanceFlat
	}
	shapes := []struct {
		name string
		term func() pref.Preference
		alg  Algorithm
		dom  Dominance
	}{
		{"pareto3", func() pref.Preference {
			return pref.ParetoAll(pref.AROUND("d1", anchor()), pref.AROUND("d2", anchor()), pref.LOWEST("d3"))
		}, SFS, on(true)},
		{"pareto-prior-chain", func() pref.Preference {
			return pref.Prioritized(pref.Pareto(pref.AROUND("d1", anchor()), pref.LOWEST("d2")), pref.LOWEST("d3"))
		}, BNL, on(true)},
		{"chain-prior-pareto", func() pref.Preference {
			return pref.Prioritized(pref.LOWEST("d3"), pref.Pareto(pref.AROUND("d1", anchor()), pref.LOWEST("d2")))
		}, BNL, on(false)},
	}
	plans, misroutes := 0, 0
	for _, cut := range []float64{0.02, 0.03, 0.04, 0.06} {
		where := &filter.Cmp{Attr: "d4", Op: "<=", Value: cut}
		for _, shape := range shapes {
			for draw := 0; draw < 20; draw++ {
				p := shape.term()
				for _, sh := range s.Shards() {
					idx := filter.CompileCached(where, sh).Indices()
					pl := PlanWithInput(p, sh, len(idx), Env{})
					plans++
					if pl.Bind != BindGathered || pl.Algorithm != shape.alg || pl.Dominance != shape.dom {
						misroutes++
						t.Errorf("%s cut %v, %d candidates: plan %s on %s, bind %s; want gathered %s on %s\n%s",
							shape.name, cut, len(idx), pl.Algorithm, pl.Dominance, pl.Bind, shape.alg, shape.dom, pl.Explain())
					}
					if shape.alg == SFS && draw < 3 {
						actual := len(BMOIndicesOn(p, sh, BNL, idx))
						t.Logf("%s cut %v: %d candidates, estimated %d maxima, actual %d", shape.name, cut, len(idx), pl.EstResult, actual)
					}
				}
			}
		}
	}
	t.Logf("cold_skyline shapes: %d of %d per-shard plans off their route", misroutes, plans)

	// durable_paged and hotset_read: a two-leaf head group.
	window := on(true)
	// durable_paged: two hash shards of 25 000 cars, price cuts of 6 000–12 000.
	cars := workload.Cars(50000, 20020820)
	cs, err := relation.ShardRelation(cars, 2, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for draw := 0; draw < 20; draw++ {
		p := pref.Pareto(pref.AROUND("mileage", float64(rng.Intn(120000))), pref.HIGHEST("horsepower"))
		where := &filter.Cmp{Attr: "price", Op: "<=", Value: float64(6000 + rng.Intn(6000))}
		for _, sh := range cs.Shards() {
			idx := filter.CompileCached(where, sh).Indices()
			if pl := PlanWithInput(p, sh, len(idx), Env{}); pl.Algorithm != BNL || pl.Dominance != window {
				t.Errorf("durable_paged statement, %d of %d candidates: plan %s on %s, want bnl on %s\n%s", len(idx), sh.Len(), pl.Algorithm, pl.Dominance, window, pl.Explain())
			}
		}
	}
	// hotset_read: the pool statement over all 20 000 cars, cold and cached.
	hot := workload.Cars(20000, 20020820)
	for i := 0; i < 64; i += 7 {
		p := pref.Pareto(pref.AROUND("price", float64(12000+i*500)), pref.HIGHEST("horsepower"))
		for _, warm := range []bool{false, true} {
			if warm {
				BMOIndices(p, hot, Auto)
			}
			if pl := PlanWithInput(p, hot, hot.Len(), Env{}); pl.Algorithm != BNL || pl.Dominance != window {
				t.Errorf("hotset_read pool statement %d (cached form: %v): plan %s on %s, want bnl on %s\n%s", i, warm, pl.Algorithm, pl.Dominance, window, pl.Explain())
			}
		}
	}
}

func TestPlannerGeneralShapeNeverPlansKeyedAlgorithms(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "c", Type: relation.String}))
	for i := 0; i < 2000; i++ {
		rel.MustInsert(relation.Row{[]string{"red", "blue", "green"}[i%3]})
	}
	atProcs(t, 8)
	p := pref.MustEXPLICIT("c", []pref.Edge{{Worse: "blue", Better: "red"}})
	pl := PlanWithInput(p, rel, rel.Len(), Env{})
	if pl.Shape != ShapeGeneral {
		t.Fatalf("shape = %s", pl.Shape)
	}
	for _, c := range pl.Candidates {
		if c.Algorithm != BNL {
			t.Fatalf("general shape costed %s×%d\n%s", c.Algorithm, c.Workers, pl.Explain())
		}
	}
	if !sameIndices(runPlan(pl, p, rel), BMOIndices(p, rel, Naive)) {
		t.Error("plan execution diverged from naive")
	}
}

func TestPlannerCorrelationMovesEstimate(t *testing.T) {
	// Same cardinality and shape; anti-correlated data must estimate a
	// larger result than correlated data.
	n := 4000
	anti := antiCorrelated(rand.New(rand.NewSource(4)), n)
	corr := relation.New("C", relation.MustSchema(
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
	))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		corr.MustInsert(relation.Row{v + 0.05*rng.Float64(), v + 0.05*rng.Float64()})
	}
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	ea := PlanWithInput(p, anti, anti.Len(), Env{}).EstResult
	ec := PlanWithInput(p, corr, corr.Len(), Env{}).EstResult
	if ea <= ec {
		t.Errorf("anti-correlated estimate %d must exceed correlated %d", ea, ec)
	}
}

func TestPlanExplainRendersDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rel := antiCorrelated(rng, 3000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	atProcs(t, 4)
	text := PlanWithInput(p, rel, rel.Len(), Env{}).Explain()
	for _, want := range []string{"plan:", "shape=keyed", "candidates:", "because:", "stats:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
}

func TestPlannerSyntheticStatsOverride(t *testing.T) {
	// Injected stats must drive the decision without touching the relation.
	rng := rand.New(rand.NewSource(7))
	rel := antiCorrelated(rng, 2000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	stats := relation.Analyze(rel)
	pl := PlanWithInput(p, rel, rel.Len(), Env{Stats: stats})
	if pl.Stats != stats {
		t.Error("planner must use the injected stats")
	}
}

func TestResolveAutoCompat(t *testing.T) {
	chain := pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b"))
	// (Ten rows of a flat term: the window pass, by the two-pass comparison.)
	if alg := ResolveAuto(chain, 10).Algorithm; alg != BNL {
		t.Errorf("small chain product resolves %s, want bnl", alg)
	}
	general := pref.MustEXPLICIT("a", []pref.Edge{{Worse: int64(1), Better: int64(2)}})
	if alg := ResolveAuto(general, 10).Algorithm; alg != BNL {
		t.Errorf("small general resolves %s, want bnl", alg)
	}
	// Large inputs go through the cost model; the winner must at least be
	// applicable to the shape.
	switch alg := ResolveAuto(chain, 100000).Algorithm; alg {
	case Naive, Decomposition:
		t.Errorf("cost model picked %s", alg)
	}
}

// TestAutoAndParallelVariantsAgree extends the pairwise-agreement guarantee
// to both passes at every worker count and to the planner's own dispatch
// at several Ps.
func TestAutoAndParallelVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		rel := randomRelation(rng, 500+rng.Intn(800), 2+rng.Intn(6))
		p := randomTerm(rng, 6)
		want := BMOIndices(p, rel, BNL)
		if got := BMOIndices(p, rel, Auto); !sameIndices(got, want) {
			t.Fatalf("trial %d: auto disagrees on %s: %d vs %d rows", trial, p, len(got), len(want))
		}
		c := compileFor(p, rel, EvalAuto)
		for _, workers := range []int{2, 3, 8} {
			for _, alg := range []Algorithm{BNL, SFS} {
				if got := execute(alg, workers, p, rel, c, allIndices(rel.Len()), nil); !sameIndices(got, want) {
					t.Fatalf("trial %d: %s×%d disagrees on %s: %d vs %d rows", trial, alg, workers, p, len(got), len(want))
				}
			}
			atProcs(t, workers)
			pl := PlanWithInput(p, rel, rel.Len(), Env{})
			if got := runPlan(pl, p, rel); !sameIndices(got, want) {
				t.Fatalf("trial %d: plan %s×%d disagrees on %s", trial, pl.Algorithm, pl.Workers, p)
			}
		}
	}
}

func TestShapeAndAlgorithmStrings(t *testing.T) {
	for s, want := range map[Shape]string{ShapeKeyed: "keyed", ShapeGeneral: "general"} {
		if s.String() != want {
			t.Errorf("%d renders %q", s, s.String())
		}
	}
	if Shape(9).String() == "" {
		t.Error("unknown shape must render")
	}
	// The algorithms a caller names are the dense range Auto…Decomposition.
	for alg := Auto; alg <= Decomposition; alg++ {
		if strings.HasPrefix(alg.String(), "Algorithm(") {
			t.Errorf("%d has no name", alg)
		}
	}
}

func TestPresortedInputDiscountsSFSSort(t *testing.T) {
	// A relation already ascending in the preferred attribute: the planner
	// must notice and mention the discount in the SFS candidate note.
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "v", Type: relation.Float}))
	for i := 0; i < 2000; i++ {
		rel.MustInsert(relation.Row{float64(i)})
	}
	pl := PlanWithInput(pref.LOWEST("v"), rel, rel.Len(), Env{})
	var note string
	for _, c := range pl.Candidates {
		if c.Algorithm == SFS && c.Workers == 1 {
			note = c.Note
		}
	}
	if !strings.Contains(note, "already sorted") {
		t.Errorf("SFS candidate note %q must mention the presort discount\n%s", note, pl.Explain())
	}
}

func TestEstimateIgnoresConstantChainDims(t *testing.T) {
	// One constant dimension and one varying dimension: the estimate must
	// come from the varying one (≈1 distinct-heavy chain), not blow up to n.
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < 1000; i++ {
		rel.MustInsert(relation.Row{1.0, float64(i)})
	}
	p := pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b"))
	pl := PlanWithInput(p, rel, rel.Len(), Env{})
	if pl.EstResult > 10 {
		t.Errorf("constant dim must not inflate estimate: est=%d", pl.EstResult)
	}
	// All dimensions constant: every tuple is maximal.
	allConst := relation.New("C", relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < 500; i++ {
		allConst.MustInsert(relation.Row{1.0, 2.0})
	}
	if pl := PlanWithInput(p, allConst, allConst.Len(), Env{}); pl.EstResult != 500 {
		t.Errorf("all-constant dims: est=%d, want 500", pl.EstResult)
	}
}

// TestPrioritizedEstimateFollowsTheHead: Definition 9 is lexicographic, so
// the result of a prioritized term is sized by its head — the tail only
// splits head ties — not by a skyline over every attribute of the chain.
// The three cold_skyline shapes over their two range shards, and a
// low-cardinality head whose ties the tail does thin, must estimate
// within 10× of what the shard returns, per shard and at the merge line;
// and the algorithm the shapes were gated with (the flat window pass)
// must not move with the estimate.
func TestPrioritizedEstimateFollowsTheHead(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	within10x := func(what string, est, actual int) {
		t.Helper()
		if actual < 1 {
			actual = 1
		}
		if est > 10*actual || actual > 10*est {
			t.Errorf("%s: estimated %d, actual %d", what, est, actual)
		}
	}
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	s, err := relation.ShardRelation(pts, 2, relation.ByRange("d1", relation.RangeBounds(pts, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    pref.Preference
	}{
		{"pareto3", pref.ParetoAll(pref.AROUND("d1", 0.41), pref.AROUND("d2", 0.63), pref.LOWEST("d3"))},
		{"pareto-prior-chain", pref.Prioritized(pref.Pareto(pref.AROUND("d1", 0.41), pref.LOWEST("d2")), pref.LOWEST("d3"))},
		{"chain-prior-pareto", pref.Prioritized(pref.LOWEST("d3"), pref.Pareto(pref.AROUND("d1", 0.41), pref.LOWEST("d2")))},
	} {
		for _, cut := range []float64{0.021, 0.045, 0.059} { // below and above the small-input threshold
			where := &filter.Cmp{Attr: "d4", Op: "<=", Value: cut}
			sets := make(ShardSets, s.NumShards())
			for i, sh := range s.Shards() {
				sets[i] = filter.CompileCached(where, sh).Indices()
			}
			sp := PlanShardedOn(c.p, s, sets, Env{})
			locals := 0
			for i, sh := range s.Shards() {
				local := len(BMOIndicesOn(c.p, sh, Auto, sets[i]))
				locals += local
				pl := PlanWithInput(c.p, sh, len(sets[i]), Env{})
				within10x(fmt.Sprintf("%s cut %v shard %d", c.name, cut, i), pl.EstResult, local)
			}
			within10x(fmt.Sprintf("%s cut %v merge input", c.name, cut), s.NumShards()*sp.PerShard.EstResult, locals)
		}
	}

	// A discrete head: five classes of 400 rows, the tail a skyline inside
	// the best one.
	rng := rand.New(rand.NewSource(12))
	rel := relation.New("R", relation.MustSchema(
		relation.Column{Name: "grade", Type: relation.Int},
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	))
	for i := 0; i < 2000; i++ {
		a := rng.Float64()
		rel.MustInsert(relation.Row{int64(i % 5), a, 1 - a + rng.Float64()/5})
	}
	p := pref.Prioritized(pref.LOWEST("grade"), pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b")))
	within10x("discrete head", PlanWithInput(p, rel, rel.Len(), Env{}).EstResult, len(BMOIndices(p, rel, Auto)))
	within10x("discrete head alone", PlanWithInput(pref.Prioritized(pref.LOWEST("grade"), pref.LOWEST("a")), rel, rel.Len(), Env{}).EstResult, 1)
}

// TestPlanCoreAllocs pins what planning a gathered flat shape allocates:
// the Plan and its candidate list. The "because:" lines are words for
// EXPLAIN only and are rendered by Explain, not by the planner on every
// statement.
func TestPlanCoreAllocs(t *testing.T) {
	atProcs(t, 1)
	rel := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	for _, p := range []pref.Preference{
		pref.ParetoAll(pref.AROUND("d1", 0.4), pref.AROUND("d2", 0.6), pref.LOWEST("d3")),
		pref.Prioritized(pref.Pareto(pref.AROUND("d1", 0.4), pref.LOWEST("d2")), pref.LOWEST("d3")),
		pref.Prioritized(pref.LOWEST("d3"), pref.Pareto(pref.AROUND("d1", 0.4), pref.LOWEST("d2"))),
	} {
		for _, n := range []int{100, 300} { // below and above smallInput
			pl := planCore(p, rel, n, Env{}, BindGathered) // the statistics build once
			want := 1.0
			if len(pl.Candidates) > 0 {
				want = 2
			}
			if allocs := testing.AllocsPerRun(50, func() { planCore(p, rel, n, Env{}, BindGathered) }); allocs > want {
				t.Errorf("%s over %d candidates: planCore makes %.0f allocations, want %.0f (the plan and its candidates)", p, n, allocs, want)
			}
			if !strings.Contains(pl.Explain(), "because: ") {
				t.Errorf("%s over %d candidates: Explain lost its reasons:\n%s", p, n, pl.Explain())
			}
		}
	}
}
