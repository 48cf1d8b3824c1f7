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
	rng := rand.New(rand.NewSource(1))
	rel := antiCorrelated(rng, 20000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	pl := PlanWith(p, rel, Env{NumCPU: 8})
	if pl.Shape != ShapeChainProduct {
		t.Fatalf("shape = %s", pl.Shape)
	}
	switch pl.Algorithm {
	case ParallelBNL, ParallelSFS, ParallelDNC:
	default:
		t.Fatalf("large chain-product workload must plan parallel, got %s\n%s", pl.Algorithm, pl.Explain())
	}
	if pl.Workers < 2 {
		t.Errorf("parallel plan with %d workers", pl.Workers)
	}
	// The plan must execute to the exact BMO set.
	if !sameIndices(pl.Indices(), BMOIndices(p, rel, BNL)) {
		t.Error("plan execution diverged from sequential BNL")
	}
}

func TestPlannerSequentialOnOneCPU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := antiCorrelated(rng, 5000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	pl := PlanWith(p, rel, Env{NumCPU: 1})
	switch pl.Algorithm {
	case ParallelBNL, ParallelSFS, ParallelDNC:
		t.Fatalf("single CPU must not plan parallel, got %s", pl.Algorithm)
	}
	if pl.Workers != 1 {
		t.Errorf("workers = %d", pl.Workers)
	}
}

func TestPlannerSmallInputUsesShapeHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := antiCorrelated(rng, 50)
	keyed := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	if pl := PlanWith(keyed, rel, Env{NumCPU: 64}); pl.Algorithm != SFS {
		t.Errorf("small keyed input plans %s, want sfs", pl.Algorithm)
	}
	// POS compiles to a keyed weak order nowadays; an EXPLICIT graph stays a
	// genuinely general partial order with no compatible sort key.
	general := pref.MustEXPLICIT("d1", []pref.Edge{{Worse: 0.25, Better: 0.75}})
	if pl := PlanWith(general, rel, Env{NumCPU: 64}); pl.Algorithm != BNL {
		t.Errorf("small general input plans %s, want bnl", pl.Algorithm)
	}
}

// TestPlannerSmallGatheredFlatInputSkipsTheKeys: the one cost difference
// the small-input heuristic does not call noise. A small candidate set of
// a large relation binds gathered — a form no later statement reuses — so
// SFS's per-leaf key sorts would serve this statement alone; a term of the
// flat fragment takes the key-free window pass on records instead. Terms
// that would compare through the tree, and forms whose keys are cached or
// will be, keep SFS.
func TestPlannerSmallGatheredFlatInputSkipsTheKeys(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	rng := rand.New(rand.NewSource(4))
	rel := antiCorrelated(rng, 4000)
	flat := pref.Prioritized(pref.Pareto(pref.AROUND("d1", 0.4), pref.LOWEST("d2")), pref.LOWEST("d1"))
	pl := PlanWithInput(flat, rel, 200, Env{})
	if pl.Bind != BindGathered || pl.Algorithm != BNL || pl.Dominance != DominanceFlat {
		t.Errorf("200 of 4000 candidates, flat term: bind=%s alg=%s dominance=%s; want gathered bnl flat", pl.Bind, pl.Algorithm, pl.Dominance)
	}
	rank := pref.Rank("F", pref.WeightedSum(1, 1), pref.HIGHEST("d1"), pref.HIGHEST("d2"))
	if pl := PlanWithInput(rank, rel, 200, Env{}); pl.Bind != BindGathered || pl.Algorithm != SFS {
		t.Errorf("200 of 4000 candidates, keyed term outside the fragment: bind=%s alg=%s; want gathered sfs", pl.Bind, pl.Algorithm)
	}
	BMOIndices(flat, rel, Auto) // binds and caches the whole-relation form
	if pl := PlanWithInput(flat, rel, 200, Env{}); pl.Bind != BindCached || pl.Algorithm != SFS {
		t.Errorf("with a cached form: bind=%s alg=%s; want cached sfs", pl.Bind, pl.Algorithm)
	}
}

func TestPlannerGeneralShapeNeverPlansKeyedAlgorithms(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "c", Type: relation.String}))
	for i := 0; i < 2000; i++ {
		rel.MustInsert(relation.Row{[]string{"red", "blue", "green"}[i%3]})
	}
	p := pref.MustEXPLICIT("c", []pref.Edge{{Worse: "blue", Better: "red"}})
	pl := PlanWith(p, rel, Env{NumCPU: 8})
	if pl.Shape != ShapeGeneral {
		t.Fatalf("shape = %s", pl.Shape)
	}
	switch pl.Algorithm {
	case SFS, DNC, ParallelSFS, ParallelDNC:
		t.Fatalf("general shape planned %s", pl.Algorithm)
	}
	if !sameIndices(pl.Indices(), BMOIndices(p, rel, Naive)) {
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
	ea := PlanWith(p, anti, Env{NumCPU: 1}).EstResult
	ec := PlanWith(p, corr, Env{NumCPU: 1}).EstResult
	if ea <= ec {
		t.Errorf("anti-correlated estimate %d must exceed correlated %d", ea, ec)
	}
}

func TestPlanExplainRendersDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rel := antiCorrelated(rng, 3000)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	text := PlanWith(p, rel, Env{NumCPU: 4}).Explain()
	for _, want := range []string{"plan:", "shape=chain-product", "candidates:", "because:", "stats:"} {
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
	pl := PlanWith(p, rel, Env{NumCPU: 2, Stats: stats})
	if pl.Stats != stats {
		t.Error("planner must use the injected stats")
	}
}

func TestResolveAutoCompat(t *testing.T) {
	chain := pref.Pareto(pref.LOWEST("a"), pref.LOWEST("b"))
	if alg := ResolveAuto(chain, 10); alg != SFS {
		t.Errorf("small chain product resolves %s, want sfs", alg)
	}
	general := pref.MustEXPLICIT("a", []pref.Edge{{Worse: int64(1), Better: int64(2)}})
	if alg := ResolveAuto(general, 10); alg != BNL {
		t.Errorf("small general resolves %s, want bnl", alg)
	}
	// Large inputs go through the cost model; the winner must at least be
	// applicable to the shape.
	switch alg := ResolveAuto(chain, 100000); alg {
	case Naive, Decomposition:
		t.Errorf("cost model picked %s", alg)
	}
}

// TestAutoAndParallelVariantsAgree extends the pairwise-agreement guarantee
// to every new algorithm and the planner's own dispatch.
func TestAutoAndParallelVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		rel := randomRelation(rng, 500+rng.Intn(800), 2+rng.Intn(6))
		p := randomTerm(rng, 6)
		want := BMOIndices(p, rel, BNL)
		for _, alg := range []Algorithm{Auto, ParallelBNL, ParallelSFS, ParallelDNC} {
			if got := BMOIndices(p, rel, alg); !sameIndices(got, want) {
				t.Fatalf("trial %d: %s disagrees on %s: %d vs %d rows", trial, alg, p, len(got), len(want))
			}
		}
		for _, cpus := range []int{2, 3, 8} {
			pl := PlanWith(p, rel, Env{NumCPU: cpus})
			if got := pl.Indices(); !sameIndices(got, want) {
				t.Fatalf("trial %d: plan %s×%d disagrees on %s", trial, pl.Algorithm, pl.Workers, p)
			}
		}
	}
}

func TestShapeAndAlgorithmStrings(t *testing.T) {
	for s, want := range map[Shape]string{
		ShapeChainProduct: "chain-product", ShapeKeyed: "keyed", ShapeGeneral: "general",
	} {
		if s.String() != want {
			t.Errorf("%d renders %q", s, s.String())
		}
	}
	if Shape(9).String() == "" {
		t.Error("unknown shape must render")
	}
	for alg, want := range map[Algorithm]string{
		ParallelBNL: "parallel-bnl", ParallelSFS: "parallel-sfs", ParallelDNC: "parallel-dnc",
	} {
		if alg.String() != want {
			t.Errorf("%d renders %q", alg, alg.String())
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
	pl := PlanWith(pref.LOWEST("v"), rel, Env{NumCPU: 1})
	var note string
	for _, c := range pl.Candidates {
		if c.Algorithm == SFS {
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
	pl := PlanWith(p, rel, Env{NumCPU: 1})
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
	if pl := PlanWith(p, allConst, Env{NumCPU: 1}); pl.EstResult != 500 {
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
			sp := PlanShardedOn(c.p, s, sets, Env{NumCPU: 1})
			if sp.PerShard.Algorithm != BNL || sp.PerShard.Dominance != DominanceFlat || sp.PerShard.Bind != BindGathered {
				t.Errorf("%s cut %v: per-shard plan %s on %s, bind %s; want the gathered flat window pass",
					c.name, cut, sp.PerShard.Algorithm, sp.PerShard.Dominance, sp.PerShard.Bind)
			}
			locals := 0
			for i, sh := range s.Shards() {
				local := len(BMOIndicesOn(c.p, sh, Auto, sets[i]))
				locals += local
				pl := PlanWithInput(c.p, sh, len(sets[i]), Env{NumCPU: 1})
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
	within10x("discrete head", PlanWith(p, rel, Env{NumCPU: 1}).EstResult, len(BMOIndices(p, rel, Auto)))
	within10x("discrete head alone", PlanWith(pref.Prioritized(pref.LOWEST("grade"), pref.LOWEST("a")), rel, Env{NumCPU: 1}).EstResult, 1)
}
