package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/rank"
	"repro/internal/workload"
)

// F1 measures the filter effect of accumulation constructors across data
// distributions, verifying the Proposition 13 inequalities empirically:
//
//	size(P1&P2, R) ≤ size(P1, R)           (c)
//	size(P1⊗P2, R) ≥ size(P1&P2, R)        (d)
//	size(P1⊗P2, R) ≥ size(P2&P1, R)        (d)
//
// and printing the AND/OR-analogy table of §5.5: prioritization filters
// like an AND, Pareto accumulation relaxes like an OR, and the BMO model
// adapts the strength automatically to data quality (distribution).
func F1() *Report {
	r := &Report{ID: "F1", Title: "Filter effect", Pass: true}
	const n = 4000
	p1 := pref.LOWEST("d1")
	p2 := pref.LOWEST("d2")
	r.printf("%-16s %8s %8s %10s %10s %10s", "distribution", "size(P1)", "size(P2)", "size(P1&P2)", "size(P2&P1)", "size(P1⊗P2)")
	for _, dist := range []workload.Distribution{workload.Correlated, workload.Independent, workload.AntiCorrelated} {
		rel := workload.Numeric(n, 2, dist, 7)
		s1 := engine.ResultSize(p1, rel, engine.BNL)
		s2 := engine.ResultSize(p2, rel, engine.BNL)
		s12 := engine.ResultSize(pref.Prioritized(p1, p2), rel, engine.BNL)
		s21 := engine.ResultSize(pref.Prioritized(p2, p1), rel, engine.BNL)
		sp := engine.ResultSize(pref.Pareto(p1, p2), rel, engine.BNL)
		r.printf("%-16s %8d %8d %10d %10d %10d", dist, s1, s2, s12, s21, sp)
		if s12 > s1 {
			r.fail("%s: size(P1&P2)=%d > size(P1)=%d violates Prop 13c", dist, s12, s1)
		}
		if s21 > s2 {
			r.fail("%s: size(P2&P1)=%d > size(P2)=%d violates Prop 13c", dist, s21, s2)
		}
		if sp < s12 || sp < s21 {
			r.fail("%s: size(P1⊗P2)=%d below a prioritized size (%d, %d), violates Prop 13d", dist, sp, s12, s21)
		}
	}
	r.printf("reading: P1&P2 ⇛ P1 (AND-like strengthening), P1⊗P2 ⇚ P1&P2 (OR-like relaxation)")
	// Dimensionality sweep: Pareto result sizes grow with dimensions on
	// independent data (the BMO filter adapts to data quality).
	r.printf("%-16s %6s %12s", "independent", "dims", "size(⊗ all)")
	prev := 0
	for _, d := range []int{2, 3, 4, 5, 6} {
		rel := workload.Numeric(n, d, workload.Independent, 11)
		ps := make([]pref.Preference, d)
		for i := 0; i < d; i++ {
			ps[i] = pref.LOWEST(fmt.Sprintf("d%d", i+1))
		}
		size := engine.ResultSize(pref.ParetoAll(ps...), rel, engine.BNL)
		r.printf("%-16s %6d %12d", "", d, size)
		if size < prev {
			// Not a theorem, but on independent data skylines grow with d;
			// treat a strict decrease as a generator red flag.
			r.fail("skyline size decreased from %d to %d when adding dimension %d", prev, size, d)
		}
		prev = size
	}
	return r
}

// F2 replays a mix of Pareto preference queries against a synthetic
// used-car e-shop database, measuring the BMO result-size distribution.
// [KFH01] reports "typical result sizes … from a few to a few dozens" —
// the shape this experiment must reproduce.
func F2() *Report {
	r := &Report{ID: "F2", Title: "BMO result sizes", Pass: true}
	cars := workload.Cars(20000, 99)
	queries := []struct {
		name string
		p    pref.Preference
		// cascade, when non-nil, applies a second preference query to the
		// BMO result (the Preference SQL CASCADE clause).
		cascade pref.Preference
	}{
		{name: "price↓ ⊗ mileage↓", p: pref.Pareto(pref.LOWEST("price"), pref.LOWEST("mileage"))},
		{name: "price↓ ⊗ hp~120", p: pref.Pareto(pref.LOWEST("price"), pref.AROUND("horsepower", 120))},
		{name: "price~15k ⊗ year↑", p: pref.Pareto(pref.AROUND("price", 15000), pref.HIGHEST("year"))},
		{name: "cat=cab/road ⊗ price↓", p: pref.Pareto(
			pref.MustPOSPOS("category", []pref.Value{"cabriolet"}, []pref.Value{"roadster"}),
			pref.LOWEST("price"))},
		{name: "color≠gray ⊗ price↓ ⊗ mile↓", p: pref.ParetoAll(
			pref.NEG("color", "gray"), pref.LOWEST("price"), pref.LOWEST("mileage"))},
		{name: "hp~100 ⊗ price↓ ⊗ year↑", p: pref.ParetoAll(
			pref.AROUND("horsepower", 100), pref.LOWEST("price"), pref.HIGHEST("year"))},
		{name: "auto ⊗ price↓", p: pref.Pareto(pref.POS("transmission", "automatic"), pref.LOWEST("price"))},
		// BETWEEN creates an equal-distance plateau inside the band, and
		// both ⊗ and & leave distinct-price plateau members unranked under
		// the paper's strict equality semantics (see the ablation in
		// EXPERIMENTS.md). The idiomatic Preference SQL phrasing is a
		// CASCADE: BMO by band first, cheapest mileage among survivors.
		{name: "price 8k-12k CASCADE mileage↓", p: pref.MustBETWEEN("price", 8000, 12000), cascade: pref.LOWEST("mileage")},
	}
	var sizes []int
	r.printf("%-30s %8s", "query", "|result|")
	for _, q := range queries {
		res := engine.BMO(q.p, cars, engine.BNL)
		if q.cascade != nil {
			res = engine.BMO(q.cascade, res, engine.BNL)
		}
		size := res.Len()
		sizes = append(sizes, size)
		r.printf("%-30s %8d", q.name, size)
		if size == 0 {
			r.fail("query %q hit the empty-result effect under BMO", q.name)
		}
	}
	sort.Ints(sizes)
	med := sizes[len(sizes)/2]
	r.printf("min=%d median=%d max=%d over %d offers", sizes[0], med, sizes[len(sizes)-1], cars.Len())
	// "A few to a few dozens": median within [1, 60] and max well below
	// flooding territory.
	if med < 1 || med > 60 {
		r.fail("median result size %d outside the paper's 'few to a few dozens' band", med)
	}
	if sizes[len(sizes)-1] > cars.Len()/50 {
		r.fail("max result size %d floods (>2%% of %d offers)", sizes[len(sizes)-1], cars.Len())
	}
	return r
}

// F3 compares the BMO evaluation algorithms across input sizes on
// anti-correlated data (the hard case) and reports where the crossovers
// fall; every algorithm must return the identical result set.
func F3() *Report {
	r := &Report{ID: "F3", Title: "Algorithm crossover", Pass: true}
	p := pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
	algs := []engine.Algorithm{engine.Naive, engine.BNL, engine.SFS, engine.Decomposition}
	header := fmt.Sprintf("%8s %10s", "n", "|skyline|")
	for _, a := range algs {
		header += fmt.Sprintf(" %14s", a)
	}
	r.printf("%s", header)
	for _, n := range []int{500, 2000, 5000} {
		rel := workload.Numeric(n, 3, workload.AntiCorrelated, 23)
		want := engine.BMOIndices(p, rel, engine.Naive)
		line := fmt.Sprintf("%8d %10d", n, len(want))
		for _, a := range algs {
			start := time.Now()
			got := engine.BMOIndices(p, rel, a)
			elapsed := time.Since(start)
			line += fmt.Sprintf(" %14s", elapsed.Round(time.Microsecond))
			if !equalIntSets(got, want) {
				r.fail("%s returned %d rows at n=%d, naive returned %d", a, len(got), n, len(want))
			}
		}
		r.printf("%s", line)
	}
	r.printf("note: timings indicative; see bench_test.go for testing.B measurements")
	return r
}

// F4 compares the heap-based full scan with the threshold algorithm for
// the ranked query model of §6.2, reporting how many of n rows the
// threshold algorithm had to materialize before stopping.
func F4() *Report {
	r := &Report{ID: "F4", Title: "Ranked query model", Pass: true}
	const k = 10
	r.printf("%8s %6s %10s %14s %14s", "n", "k", "scanned", "sortedAccess", "agreement")
	for _, n := range []int{1000, 10000, 50000} {
		rel := workload.Numeric(n, 2, workload.Independent, 5)
		p := pref.Rank("w-sum", pref.WeightedSum(1, 2),
			pref.HIGHEST("d1"), pref.HIGHEST("d2"))
		full := rank.TopK(p, rel, k)
		ta, stats := rank.ThresholdTopK(p, rel, k)
		agree := len(full) == len(ta)
		if agree {
			for i := range full {
				if full[i].Row != ta[i].Row {
					agree = false
					break
				}
			}
		}
		r.printf("%8d %6d %10d %14d %14v", n, k, stats.Scanned, stats.SortedAccesses, agree)
		if !agree {
			r.fail("threshold algorithm disagrees with full scan at n=%d", n)
		}
		if stats.Scanned >= n {
			r.fail("threshold algorithm scanned all %d rows; no sorted-access savings", n)
		}
	}
	return r
}
