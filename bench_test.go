package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/paperdata"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/quality"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/skyline"
	"repro/internal/workload"
)

// One benchmark per reproduced experiment, plus the ablation and
// evaluation-layer benches (planner, streaming, shards). Run with
//
//	go test -bench=. -benchmem
//
// The E-benches measure the cost of regenerating the paper's worked
// examples; the F-benches measure the quantitative studies' hot paths.

func BenchmarkE01Explicit(b *testing.B) {
	p := paperdata.Example1Explicit()
	tuples := paperdata.ColorTuples()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := pref.NewGraph(p, tuples)
		if g.MaxLevel() != 4 {
			b.Fatal("wrong level structure")
		}
	}
}

func BenchmarkE02Pareto(b *testing.B) {
	p := paperdata.Example2Pareto()
	r := paperdata.Example2R()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(engine.BMOIndices(p, r, engine.Naive)) != 3 {
			b.Fatal("wrong Pareto-optimal set")
		}
	}
}

func BenchmarkE03SharedPareto(b *testing.B) {
	p5, p6 := paperdata.Example3Prefs()
	p7 := pref.Pareto(p5, p6)
	tuples := paperdata.Example3STuples()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pref.NewGraph(p7, tuples)
	}
}

func BenchmarkE04Prioritized(b *testing.B) {
	p1, p2, p3 := paperdata.Example2Prefs()
	p9 := pref.Prioritized(pref.Pareto(p1, p2), p3)
	r := paperdata.Example2R()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.BMOIndices(p9, r, engine.BNL)
	}
}

func BenchmarkE05RankF(b *testing.B) {
	p := paperdata.Example5Rank()
	r := paperdata.Example5R()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < r.Len(); j++ {
			p.ScoreOf(r.Tuple(j))
		}
	}
}

func BenchmarkE06Engineering(b *testing.B) {
	cars := workload.Cars(2000, 42)
	p1 := pref.MustPOSPOS("category", []pref.Value{"cabriolet"}, []pref.Value{"roadster"})
	p2 := pref.POS("transmission", "automatic")
	p3 := pref.AROUND("horsepower", 100)
	p4 := pref.LOWEST("price")
	p5 := pref.NEG("color", "gray")
	q1 := pref.Prioritized(p5, pref.Prioritized(pref.ParetoAll(p1, p2, p3), p4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.BMO(q1, cars, engine.BNL)
	}
}

func BenchmarkE07NonDiscrimination(b *testing.B) {
	p1, p2 := paperdata.Example7Prefs()
	rhs := pref.MustIntersection(pref.Prioritized(p1, p2), pref.Prioritized(p2, p1))
	r := paperdata.Example7CarDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.BMOIndices(rhs, r, engine.Naive)
	}
}

func BenchmarkE10Grouping(b *testing.B) {
	r := paperdata.Example10Cars()
	p2 := pref.AROUND("Price", 40000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.GroupBy(p2, []string{"Make"}, r, engine.Naive)
	}
}

func BenchmarkE11Decomposition(b *testing.B) {
	p1, p2 := paperdata.Example11Prefs()
	pareto := pref.Pareto(p1, p2)
	r := paperdata.Example11R()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.BMOIndices(pareto, r, engine.Decomposition)
	}
}

// BenchmarkF1FilterEffect measures result-size computation across the
// accumulation constructors (Prop 13).
func BenchmarkF1FilterEffect(b *testing.B) {
	rel := workload.Numeric(2000, 2, workload.Independent, 7)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ResultSize(p, rel, engine.BNL)
	}
}

// BenchmarkF2ResultSizes measures one e-shop Pareto query of the [KFH01]
// replay through the full Preference SQL path.
func BenchmarkF2ResultSizes(b *testing.B) {
	cars := workload.Cars(5000, 99)
	cat := psql.Catalog{"car": cars}
	query := "SELECT oid FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psql.Run(query, cat, psql.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3Algorithms is the crossover study: every algorithm on the
// same anti-correlated 3-d workload across sizes.
func BenchmarkF3Algorithms(b *testing.B) {
	p := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	for _, n := range []int{1000, 4000} {
		rel := workload.Numeric(n, 3, workload.AntiCorrelated, 23)
		for _, alg := range []engine.Algorithm{engine.Naive, engine.BNL, engine.SFS, engine.Decomposition} {
			b.Run(fmt.Sprintf("n=%d/%s", n, alg), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					engine.BMOIndices(p, rel, alg)
				}
			})
		}
	}
}

// BenchmarkCompiledColumnar is the acceptance study of the compiled
// evaluation layer: the F3 crossover workload (anti-correlated 3-d chain
// product) at n=10000, every core algorithm under compiled columnar
// versus interpreted interface evaluation. The compiled rows must show
// ≥5× lower ns/op and ≥10× fewer allocs/op.
func BenchmarkCompiledColumnar(b *testing.B) {
	p := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	rel := workload.Numeric(10000, 3, workload.AntiCorrelated, 23)
	rel.Columnarize()
	for _, alg := range []engine.Algorithm{engine.BNL, engine.SFS} {
		for _, mode := range []engine.EvalMode{engine.EvalInterpreted, engine.EvalCompiled} {
			b.Run(fmt.Sprintf("%s/%s", alg, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					engine.BMOIndicesMode(p, rel, alg, mode)
				}
			})
		}
	}
}

// BenchmarkCompiledDiscreteQuery measures a realistic e-shop query mixing
// discrete layers (POS/POS, POS, NEG) with numeric dimensions, the term
// family the compiled level vectors unlock SFS for (interpreted
// evaluation has no key and runs BNL).
func BenchmarkCompiledDiscreteQuery(b *testing.B) {
	cars := workload.Cars(10000, 42)
	p1 := pref.MustPOSPOS("category", []pref.Value{"cabriolet"}, []pref.Value{"roadster"})
	p2 := pref.POS("transmission", "automatic")
	p3 := pref.AROUND("horsepower", 100)
	p4 := pref.LOWEST("price")
	p5 := pref.NEG("color", "gray")
	q := pref.Prioritized(p5, pref.Prioritized(pref.ParetoAll(p1, p2, p3), p4))
	for _, mode := range []engine.EvalMode{engine.EvalInterpreted, engine.EvalCompiled} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.BMOIndicesMode(q, cars, engine.Auto, mode)
			}
		})
	}
}

// BenchmarkF4TopK compares the heap scan against the threshold algorithm
// for the ranked query model.
func BenchmarkF4TopK(b *testing.B) {
	rel := workload.Numeric(20000, 2, workload.Independent, 5)
	p := pref.Rank("w-sum", pref.WeightedSum(1, 2), pref.HIGHEST("d1"), pref.HIGHEST("d2"))
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rank.TopK(p, rel, 10)
		}
	})
	b.Run("threshold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rank.ThresholdTopK(p, rel, 10)
		}
	})
}

// BenchmarkAblationDecompositionVsDirect quantifies the cost of evaluating
// Pareto queries through the Prop-12 decomposition versus direct BNL — the
// divide & conquer trade-off §5.1 raises for a preference query optimizer.
func BenchmarkAblationDecompositionVsDirect(b *testing.B) {
	rel := workload.Numeric(2000, 2, workload.Independent, 13)
	p := pref.Pareto(pref.AROUND("d1", 0.5), pref.LOWEST("d2"))
	b.Run("direct-bnl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, rel, engine.BNL)
		}
	})
	b.Run("prop12-decomposition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, rel, engine.Decomposition)
		}
	})
}

// BenchmarkAblationChainShortcut measures Prop 11's cascade shortcut for
// prioritized queries with a chain head against generic grouping.
func BenchmarkAblationChainShortcut(b *testing.B) {
	rel := workload.Numeric(4000, 2, workload.Independent, 19)
	chainFirst := pref.Prioritized(pref.LOWEST("d1"), pref.AROUND("d2", 0.5))
	b.Run("prop11-cascade", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(chainFirst, rel, engine.Decomposition)
		}
	})
	b.Run("direct-bnl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(chainFirst, rel, engine.BNL)
		}
	})
}

// BenchmarkAblationBinaryVsNaryPareto compares nested binary ⊗ (Example 2
// style) against the coordinate-wise n-ary product on identical data.
func BenchmarkAblationBinaryVsNaryPareto(b *testing.B) {
	rel := workload.Numeric(2000, 3, workload.AntiCorrelated, 29)
	binary := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	nary := pref.ParetoProduct(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	b.Run("nested-binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(binary, rel, engine.BNL)
		}
	})
	b.Run("nary-product", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(nary, rel, engine.BNL)
		}
	})
}

// BenchmarkProgressiveFirstResult measures time to the FIRST skyline
// member via the progressive evaluator against full batch computation
// ([TEO01]'s motivation).
func BenchmarkProgressiveFirstResult(b *testing.B) {
	rel := workload.Numeric(20000, 2, workload.AntiCorrelated, 31)
	clause := skyline.Clause{Dims: []skyline.Dim{{Attr: "d1", Dir: skyline.Min}, {Attr: "d2", Dir: skyline.Min}}}
	b.Run("progressive-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := skyline.FirstK(clause, rel, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := skyline.Compute(clause, rel, engine.BNL); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreferenceSQLParse isolates the language front end.
func BenchmarkPreferenceSQLParse(b *testing.B) {
	query := `SELECT * FROM car WHERE make = 'Opel'
		PREFERRING (category = 'roadster' ELSE category <> 'passenger' AND
		price AROUND 40000 AND HIGHEST(power))
		CASCADE color = 'red' CASCADE LOWEST(mileage)`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := psql.Parse(query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentExamples runs the full worked-example suite once per
// iteration, the end-to-end reproduction cost.
func BenchmarkExperimentExamples(b *testing.B) {
	ids := []string{"E1", "E2", "E3", "E4", "E5", "E7", "E8", "E9", "E10", "E11"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			e, ok := experiments.ByID(id)
			if !ok {
				b.Fatal("missing experiment", id)
			}
			if rep := e.Run(); !rep.Pass {
				b.Fatalf("%s failed: %v", id, rep.Err)
			}
		}
	}
}

// BenchmarkPlanner isolates the cost of a plan decision (statistics
// sampling plus cost model) so planning overhead stays visibly tiny next
// to the evaluation it steers.
func BenchmarkPlanner(b *testing.B) {
	rel := workload.Numeric(20000, 3, workload.AntiCorrelated, 41)
	p := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.PlanWithInput(p, rel, rel.Len(), engine.Env{})
	}
}

// BenchmarkEvalStreamFirstMaximum measures progressive time-to-first-result
// through the engine's general streaming evaluator against the full batch
// computation it short-circuits.
func BenchmarkEvalStreamFirstMaximum(b *testing.B) {
	rel := workload.Numeric(20000, 2, workload.AntiCorrelated, 43)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	b.Run("stream-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := engine.EvalStreamCtx(context.Background(), p, rel, engine.Auto, nil)
			if _, ok := st.Next(); !ok {
				b.Fatal("no first maximum")
			}
		}
	})
	b.Run("batch-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, rel, engine.BNL)
		}
	})
}

// BenchmarkPlannerDistributions runs the planner-dispatched Auto path
// across the generator family, the workload mix the cost model is tuned
// against.
func BenchmarkPlannerDistributions(b *testing.B) {
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	for _, dist := range []workload.Distribution{
		workload.Independent, workload.Correlated, workload.AntiCorrelated, workload.Skewed,
	} {
		rel := workload.Numeric(8000, 2, dist, 47)
		b.Run(dist.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.BMOIndices(p, rel, engine.Auto)
			}
		})
	}
}

// BenchmarkHardSelection is the acceptance study of the compiled
// hard-selection layer: one numeric + one discrete WHERE condition over
// n=20000 cars, interpreted func(Tuple) bool evaluation versus a
// columnar bind.
func BenchmarkHardSelection(b *testing.B) {
	cars := workload.Cars(20000, 7)
	cars.Columnarize()
	pred := &filter.And{
		L: &filter.Cmp{Attr: "price", Op: "<=", Value: 30000.0},
		R: &filter.Not{E: &filter.Cmp{Attr: "color", Op: "=", Value: "gray"}},
	}
	b.Run("interpreted-select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cars.Select(pred.Eval)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filter.Compile(pred, cars).Indices()
		}
	})
}

// BenchmarkWherePreferring is the full query path of the acceptance
// criterion: SELECT … WHERE … PREFERRING … over n=10000 cars. The
// interpreted row measures the historical pipeline (boxed selection, then
// interpreted BMO); the compiled row runs the index-chained pipeline,
// which binds the selection and the preference per statement.
func BenchmarkWherePreferring(b *testing.B) {
	cars := workload.Cars(10000, 42)
	cars.Columnarize()
	pred := &filter.Cmp{Attr: "price", Op: "<=", Value: 30000.0}
	p := pref.Prioritized(
		pref.NEG("color", "gray"),
		pref.Pareto(pref.LOWEST("price"), pref.LOWEST("mileage")),
	)
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := cars.Select(pred.Eval)
			engine.BMOIndicesMode(p, out, engine.Auto, engine.EvalInterpreted)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx := filter.Compile(pred, cars).Indices()
			engine.BMOIndicesOn(p, cars, engine.Auto, idx)
		}
	})
}

// BenchmarkStreamFirstResultWherePreferring measures time-to-first-result
// of the index-chained streaming path on the full Preference SQL surface:
// WHERE resolves to its index list, the preference binds over the
// relation's columns, and the stream confirms its first maximum after a
// handful of candidates — against the batch execution that computes the
// complete result first.
func BenchmarkStreamFirstResultWherePreferring(b *testing.B) {
	cars := workload.Cars(20000, 51)
	cars.Columnarize()
	cat := psql.Catalog{"car": cars}
	query := "SELECT oid FROM car WHERE price <= 30000 PREFERRING LOWEST(price) AND LOWEST(mileage)"
	b.Run("stream-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := psql.RunStream(query, cat, psql.Options{}, func(relation.Row) bool { return false }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := psql.Run(query, cat, psql.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGroupedQuery measures a WHERE + GROUPING BY query. The
// index-chained row is the shipped pipeline: equality-code grouping of
// the candidate index set, every group an index slice over one bound
// form of the base relation. The materialized-rebind row Picks the WHERE
// subset into an ephemeral relation and group-evaluates there.
func BenchmarkGroupedQuery(b *testing.B) {
	cars := workload.Cars(20000, 53)
	cars.Columnarize()
	cat := psql.Catalog{"car": cars}
	query := "SELECT oid FROM car WHERE price <= 35000 PREFERRING price AROUND 20000 GROUPING BY make"
	pred := &filter.Cmp{Attr: "price", Op: "<=", Value: 35000.0}
	p := pref.AROUND("price", 20000)
	b.Run("index-chained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := psql.Run(query, cat, psql.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized-rebind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			grouped := cars.Where(pred)
			engine.GroupBy(p, []string{"make"}, grouped, engine.Auto)
		}
	})
}

// BenchmarkQualityFilter measures one BUT ONLY condition over n=20000
// rows: the interpreted per-tuple Eval against the compiled vector
// threshold scan, which builds the measure vector per statement.
func BenchmarkQualityFilter(b *testing.B) {
	cars := workload.Cars(20000, 57)
	cars.Columnarize()
	byAttr := map[string]pref.Preference{"price": pref.AROUND("price", 20000)}
	cond := quality.Condition{Kind: "distance", Attr: "price", Op: "<=", Threshold: 5000}
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kept := 0
			for j := 0; j < cars.Len(); j++ {
				if cond.Eval(byAttr, cars.Tuple(j)) {
					kept++
				}
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keep := cond.Bind(byAttr, cars)
			kept := 0
			for j := 0; j < cars.Len(); j++ {
				if keep(j) {
					kept++
				}
			}
		}
	})
}

// BenchmarkThresholdTopKStringDim measures the threshold algorithm on a
// rank(F) mixing a numeric feature with a SCORE feature over a string
// column — the dimension the ordinal-coded compiled path scores once per
// distinct value instead of once per row.
func BenchmarkThresholdTopKStringDim(b *testing.B) {
	cars := workload.Cars(20000, 59)
	cars.Columnarize()
	colorScore := map[string]float64{"red": 5, "black": 4, "blue": 3, "silver": 2, "gray": 0}
	p := pref.Rank("F", pref.WeightedSum(1, 1),
		pref.SCORE("color", "colorScore", func(v pref.Value) float64 {
			s, _ := v.(string)
			return colorScore[s]
		}),
		pref.HIGHEST("horsepower"))
	b.Run("threshold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rank.ThresholdTopK(p, cars, 10)
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rank.TopK(p, cars, 10)
		}
	})
}

// BenchmarkShardedBMO measures shard-aware BMO evaluation at n=100k
// against the flat compiled path: per-shard evaluation, each shard
// binding its own form, with the cross-shard merge, fan-out across
// GOMAXPROCS — the unkeyed soft step, so every iteration evaluates. The shards-1 row
// isolates the sharding overhead; 2/4/8 show the scale-out.
func BenchmarkShardedBMO(b *testing.B) {
	const n = 100000
	flat := workload.Numeric(n, 2, workload.AntiCorrelated, 7)
	flat.Columnarize()
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	ctx := context.Background()
	b.Run("flat-compiled", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, flat, engine.SFS)
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		s, err := relation.ShardRelation(flat, shards, relation.ByHash("d1"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.BMOShardedOnFilteredCtxKeyed(ctx, p, s, engine.SFS, nil, false, nil, engine.Robust{})
			}
		})
	}
}

// BenchmarkShardedTopK measures the sharded ranked model at n=100k:
// per-shard k-best scans off cached score vectors with the final heap
// merge, against the flat heap scan — both steady-state.
func BenchmarkShardedTopK(b *testing.B) {
	const n = 100000
	flat := workload.Numeric(n, 2, workload.Independent, 11)
	flat.Columnarize()
	p := pref.AROUND("d1", 0.5)
	b.Run("flat", func(b *testing.B) {
		rank.TopK(p, flat, 10) // warm the score vector
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rank.TopK(p, flat, 10)
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		s, err := relation.ShardRelation(flat, shards, relation.ByHash("d2"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			ctx := context.Background()
			rank.TopKShardedCtx(ctx, p, s, 10, nil, relation.Robust{}) // warm every shard
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rank.TopKShardedCtx(ctx, p, s, 10, nil, relation.Robust{})
			}
		})
	}
}

// BenchmarkShardedThresholdTopK measures the threshold algorithm, score
// vectors cached and access lists sorted per call, at n=100k — its flat
// leg, the only one: a sharded table ranks through the per-shard heap
// scan (BenchmarkShardedTopK).
func BenchmarkShardedThresholdTopK(b *testing.B) {
	const n = 100000
	flat := workload.Numeric(n, 2, workload.Independent, 13)
	flat.Columnarize()
	p := pref.Rank("F", pref.WeightedSum(1, 2), pref.HIGHEST("d1"), pref.HIGHEST("d2"))
	b.Run("flat", func(b *testing.B) {
		rank.ThresholdTopK(p, flat, 10) // warm the score vectors
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rank.ThresholdTopK(p, flat, 10)
		}
	})
}

// BenchmarkColdSelectiveBMO is the first-seen selective statement: every
// iteration runs a statement no cache has met (seed-drawn anchors and
// WHERE cuts at ≈3 % selectivity) over anti-correlated d=4 n=20000, flat
// and in 2 range shards, in the three shapes of the served cold_skyline
// workload. The bind is candidate-proportional — one pass over the ≈300
// candidates' positions per shard writing their scores and tie keys,
// never the 10 000-row shard — and the cross-shard merge folds the
// records the shards carried out. A WHERE-scoped statement stores nothing
// in the result cache, so bytes/op is the per-statement garbage alone.
func BenchmarkColdSelectiveBMO(b *testing.B) {
	flat := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	flat.Columnarize()
	sharded, err := relation.ShardRelation(flat, 2, relation.ByRange("d1", relation.RangeBounds(flat, "d1", 2)...))
	if err != nil {
		b.Fatal(err)
	}
	anchor := func(rng *rand.Rand) float64 { return 0.2 + 0.6*rng.Float64() }
	cut := func(rng *rand.Rand) float64 { return 0.02 + 0.04*rng.Float64() }
	shapes := []struct {
		name string
		stmt func(rng *rand.Rand) string
	}{
		{"pareto3", func(rng *rand.Rand) string {
			return fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING d1 AROUND %.6f AND d2 AROUND %.6f AND LOWEST(d3)", cut(rng), anchor(rng), anchor(rng))
		}},
		{"pareto-prior-chain", func(rng *rand.Rand) string {
			return fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING (d1 AROUND %.6f AND LOWEST(d2)) PRIOR TO LOWEST(d3)", cut(rng), anchor(rng))
		}},
		{"chain-prior-pareto", func(rng *rand.Rand) string {
			return fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND %.6f AND LOWEST(d2))", cut(rng), anchor(rng))
		}},
	}
	for _, layout := range []struct {
		name string
		tbl  relation.Table
	}{{"flat", flat}, {"shards-2", sharded}} {
		cat := psql.Catalog{"pts": layout.tbl}
		for _, shape := range shapes {
			b.Run(layout.name+"/"+shape.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(14))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := psql.Run(shape.stmt(rng), cat, psql.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardMergeCompiled is the cross-shard merge as a served
// statement meets it: every shard's local maxima come from the result
// cache (warm), so an iteration is the per-shard lookups plus
// max(P, ∪ maxᵢ) — a flat bind of each shard's served maxima (no shard
// evaluated, so none carried records) and the fold of the four antichains. The fold alone, at chosen part
// and input sizes and with its pair count, is BenchmarkShardMerge in
// internal/engine.
func BenchmarkShardMergeCompiled(b *testing.B) {
	flat := workload.Numeric(20000, 3, workload.AntiCorrelated, 29)
	flat.Columnarize()
	s, err := relation.ShardRelation(flat, 4, relation.ByHash("d1"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    pref.Preference
	}{
		{"chain", pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))},
		{"around", pref.ParetoAll(pref.AROUND("d1", 0.4), pref.AROUND("d2", 0.6), pref.LOWEST("d3"))},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			run := func() engine.ShardSets {
				out, _, err := engine.BMOShardedOnCtxKeyed(ctx, c.p, s, engine.Auto, nil, nil, engine.Robust{})
				if err != nil {
					b.Fatal(err)
				}
				return out
			}
			locals := 0 // what the merge is handed
			for _, sh := range s.Shards() {
				locals += len(engine.BMOIndices(c.p, sh, engine.Auto))
			}
			merged := run().Total(s) // fills the result cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(locals), "local-maxima")
			b.ReportMetric(float64(merged), "maxima")
		})
	}
}

// BenchmarkShardedStreamFirstResult measures progressive
// time-to-first-result through the k-way merged sharded stream at n=10k
// and n=100k: each shard binds and sorts its own visit order, then the
// first Next merges the shards' heads. The full batch evaluation at each
// size is included for scale.
func BenchmarkShardedStreamFirstResult(b *testing.B) {
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	ctx := context.Background()
	for _, n := range []int{10000, 100000} {
		flat := workload.Numeric(n, 2, workload.AntiCorrelated, 51)
		flat.Columnarize()
		s, err := relation.ShardRelation(flat, 4, relation.ByHash("d1"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("stream-first/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := engine.EvalStreamShardedCtx(ctx, p, s, engine.Auto, nil, engine.Robust{})
				if _, ok := st.Next(); !ok {
					b.Fatal("no first maximum")
				}
			}
		})
		b.Run(fmt.Sprintf("batch-full/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.BMOShardedOnFilteredCtxKeyed(ctx, p, s, engine.Auto, nil, false, nil, engine.Robust{})
			}
		})
	}
}

// BenchmarkCancellationOverhead prices the tentpole trade: the ctx-aware
// evaluators poll for cancellation every cancelStride comparisons via a
// masked counter, and this pair pins that cost against the tick-free
// legacy path on the same 100k anti-correlated BMO workload. The two
// timings must stay within a few percent of each other — the stride
// exists precisely so responsiveness is not bought with hot-loop cycles.
func BenchmarkCancellationOverhead(b *testing.B) {
	flat := workload.Numeric(100000, 2, workload.AntiCorrelated, 7)
	flat.Columnarize()
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	b.Run("legacy", func(b *testing.B) {
		engine.BMOIndices(p, flat, engine.SFS) // warm the column images
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, flat, engine.SFS)
		}
	})
	b.Run("ctx", func(b *testing.B) {
		// A live cancellable context: Done() is non-nil, so the stride
		// polling actually runs — context.Background() would degenerate
		// to the legacy path and measure nothing. The relation runs as its
		// one shard through the unkeyed soft step, so every iteration
		// evaluates.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		one := relation.OneShard(flat)
		eval := func() {
			if _, _, err := engine.BMOShardedOnFilteredCtxKeyed(ctx, p, one, engine.SFS, nil, false, nil, engine.Robust{}); err != nil {
				b.Fatal(err)
			}
		}
		eval()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eval()
		}
	})
}
