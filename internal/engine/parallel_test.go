package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestParallelBNLAgreesWithSequential: the partition-and-merge evaluation
// must be exact for arbitrary preference terms.
func TestParallelBNLAgreesWithSequential(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 600+rng.Intn(2000), 2+rng.Intn(8))
		p := randomTerm(rng, 8)
		want := BMOIndices(p, rel, BNL)
		workers := 2 + rng.Intn(7)
		got := execute(BNL, workers, p, rel, compileFor(p, rel, EvalAuto), allIndices(rel.Len()), nil)
		if !sameIndices(got, want) {
			t.Logf("seed %d: BNL ×%d diverged on %s: %d vs %d rows", seed, workers, p, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelBNLSmallInputFallsThrough(t *testing.T) {
	// A small input plans one worker on any number of Ps — same result as
	// sequential BNL.
	atProcs(t, 8)
	rng := rand.New(rand.NewSource(3))
	rel := randomRelation(rng, 50, 3)
	p := pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))
	if pl := PlanWithInput(p, rel, rel.Len(), Env{}); pl.Workers != 1 {
		t.Errorf("50 rows at 8 Ps plan %d workers, want 1\n%s", pl.Workers, pl.Explain())
	}
	if !sameIndices(BMOIndices(p, rel, Auto), BMOIndices(p, rel, BNL)) {
		t.Error("small-input evaluation must equal sequential")
	}
}

func TestParallelBNLEmptyAndSingleton(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
	p := pref.LOWEST("A1")
	if got := execute(BNL, 2, p, rel, nil, nil, nil); len(got) != 0 {
		t.Error("empty input")
	}
	rel.MustInsert(relation.Row{int64(1)})
	if got := execute(BNL, 2, p, rel, nil, allIndices(1), nil); len(got) != 1 {
		t.Error("singleton input")
	}
}

func TestParallelBNLInGrouping(t *testing.T) {
	// Groups large enough to partition at 4 Ps: Auto plans each group on
	// its own and must match sequential BNL.
	atProcs(t, 4)
	rng := rand.New(rand.NewSource(11))
	rel := randomRelation(rng, 6000, 2)
	p := pref.AROUND("A2", 1)
	a := GroupBy(p, []string{"A1"}, rel, BNL)
	b := GroupBy(p, []string{"A1"}, rel, Auto)
	if a.Len() != b.Len() {
		t.Errorf("grouping with partitioned plans diverged: %d vs %d", a.Len(), b.Len())
	}
}

// --- partition/merge edge cases (the framework behind every partitioned plan) ---

func TestParallelWorkersEmptyIndexSet(t *testing.T) {
	rel := relation.New("R", relation.MustSchema(relation.Column{Name: "A1", Type: relation.Int}))
	rel.MustInsert(relation.Row{int64(1)})
	p := pref.LOWEST("A1")
	for _, workers := range []int{2, 3, 8} {
		if got := execute(BNL, workers, p, rel, nil, nil, nil); len(got) != 0 {
			t.Errorf("workers=%d: empty candidate set must stay empty, got %v", workers, got)
		}
	}
}

func TestParallelWorkersBelowGrainStaySequential(t *testing.T) {
	// Fewer than two partitions' worth of candidates: planWorkers yields
	// < 2 at any number of Ps, and Auto produces the sequential result.
	atProcs(t, 8)
	rng := rand.New(rand.NewSource(21))
	rel := randomRelation(rng, 2*parallelGrain-1, 4)
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	if pl := PlanWithInput(p, rel, rel.Len(), Env{}); pl.Workers != 1 || len(pl.Candidates) != 2 {
		t.Fatalf("%d rows at 8 Ps: plan %s×%d over %d candidates, want one worker and no partitioned candidate\n%s",
			rel.Len(), pl.Algorithm, pl.Workers, len(pl.Candidates), pl.Explain())
	}
	if !sameIndices(BMOIndices(p, rel, Auto), BMOIndices(p, rel, BNL)) {
		t.Error("below grain: Auto diverged from sequential BNL")
	}
}

func TestParallelWorkersIndivisiblePartitioning(t *testing.T) {
	// Index counts that do not divide by the worker count: ragged last
	// partitions, including workers > len(idx) (empty trailing partitions).
	rng := rand.New(rand.NewSource(22))
	p := pref.Pareto(pref.LOWEST("A1"), pref.LOWEST("A2"))
	for _, n := range []int{7, 530, 1023, 1025} {
		rel := randomRelation(rng, n, 6)
		want := bnl(p, rel, allIndices(n), nil)
		for _, workers := range []int{2, 3, 5, 7, 16, n + 3} {
			// Interpreted path explicitly: compiled coverage rides on the
			// randomized agreement test below.
			if got := execute(BNL, workers, p, rel, nil, allIndices(n), nil); !sameIndices(got, want) {
				t.Errorf("n=%d workers=%d: partition/merge diverged (%d vs %d rows)", n, workers, len(got), len(want))
			}
		}
	}
}

// TestParallelVariantsRandomizedAgreement runs both passes partitioned
// against sequential BNL on random terms with forced worker counts; run
// under -race it also exercises the merge path for data races.
func TestParallelVariantsRandomizedAgreement(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := randomRelation(rng, 400+rng.Intn(800), 2+rng.Intn(8))
		p := randomTerm(rng, 8)
		workers := 2 + rng.Intn(7)
		idx := allIndices(rel.Len())
		want := bnl(p, rel, idx, nil)
		// Workers share one compiled form; under -race this also checks the
		// compiled columns are read-only across the partition fan-out.
		c := compileFor(p, rel, EvalAuto)
		for _, alg := range []Algorithm{BNL, SFS} {
			if got := execute(alg, workers, p, rel, c, idx, nil); !sameIndices(got, want) {
				t.Logf("seed %d: %s ×%d diverged on %s: %d vs %d rows", seed, alg, workers, p, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestGroupByDispatchesParallelVariants(t *testing.T) {
	// Every algorithm a caller can name reaches the per-group dispatch, and
	// Auto at several Ps plans each group at its own worker count (a
	// fall-through to BNL would still agree on results, so agreement is
	// checked per algorithm).
	atProcs(t, 4)
	rng := rand.New(rand.NewSource(33))
	rel := randomRelation(rng, 3000, 2)
	p := pref.Pareto(pref.LOWEST("A1"), pref.HIGHEST("A2"))
	want := GroupBy(p, []string{"A1"}, rel, BNL)
	for _, alg := range []Algorithm{Naive, SFS, Decomposition, Auto} {
		if got := GroupBy(p, []string{"A1"}, rel, alg); got.Len() != want.Len() {
			t.Errorf("%s grouping diverged: %d vs %d rows", alg, got.Len(), want.Len())
		}
	}
}

// TestPartitionedPassesOnCarMarket pins both passes partitioned over four
// workers against the naive evaluator on the car market at realistic
// scale, a discrete head over a three-way Pareto chain.
func TestPartitionedPassesOnCarMarket(t *testing.T) {
	cars := workload.Cars(3000, 31)
	wish := pref.Prioritized(
		pref.NEG("color", "gray"),
		pref.ParetoAll(pref.LOWEST("price"), pref.LOWEST("mileage"), pref.HIGHEST("year")),
	)
	want := BMOIndices(wish, cars, Naive)
	for _, alg := range []Algorithm{BNL, SFS} {
		pl := PlanWithInput(wish, cars, cars.Len(), Env{})
		pl.Algorithm, pl.Workers = alg, 4
		if got := runPlan(pl, wish, cars); !sameIndices(got, want) {
			t.Fatalf("%s×4: %d rows, naive found %d", alg, len(got), len(want))
		}
	}
}

// BenchmarkParallelVsSequential measures both passes at one worker against
// the same pass partitioned over GOMAXPROCS workers on a multi-core-friendly
// workload: large anti-correlated chain product, where local maxima sets
// stay small relative to the partitions. On a multi-core machine the
// partitioned rows should beat their one-worker siblings; at GOMAXPROCS 1
// only the one-worker rows run.
func BenchmarkParallelVsSequential(b *testing.B) {
	rel := workload.Numeric(20000, 3, workload.AntiCorrelated, 37)
	p := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	for _, alg := range []Algorithm{BNL, SFS} {
		for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
			pl := PlanWithInput(p, rel, rel.Len(), Env{})
			pl.Algorithm, pl.Workers = alg, workers
			b.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runPlan(pl, p, rel)
				}
			})
		}
	}
}
