package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// nanFloatRelation builds a 3-d float relation where some entries are NaN
// and some NULL, with heavy ties — the edge material for the blocked chain
// filter (NaN must block dominance, NULLs score −Inf, ties must survive).
func nanFloatRelation(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("F", relation.MustSchema(
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
		relation.Column{Name: "d3", Type: relation.Float},
	))
	val := func() pref.Value {
		switch rng.Intn(20) {
		case 0, 1:
			return math.NaN()
		case 2:
			return nil
		}
		return math.Floor(rng.Float64() * 8)
	}
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Row{val(), val(), val()})
	}
	return r
}

func chainProduct3() pref.Preference {
	return pref.ParetoAll(pref.LOWEST("d1"), pref.HIGHEST("d2"), pref.LOWEST("d3"))
}

// legFilter returns a maxima filter over c on the given comparator,
// whatever the AVX2 switch says; the caller releases it.
func legFilter(c *pref.Compiled, leg Dominance) *maximaFilter {
	prev := SetAVX2Enabled(leg == DominanceBlocksAVX2)
	defer SetAVX2Enabled(prev)
	if leg != DominanceTree {
		return newMaximaFilter(c)
	}
	f := filterPool.Get().(*maximaFilter)
	f.leg, f.tree, f.rows = DominanceTree, c, f.rows[:0]
	return f
}

// filterOn runs the filter pass over order on the given comparator.
func filterOn(c *pref.Compiled, leg Dominance, order []int) []int {
	f := legFilter(c, leg)
	defer f.release()
	return sfsFilter(f, order, nil)
}

// TestBlockedChainFilterAgreesWithGeneric pins the chain-product filter
// passes against the predicate-tree filter pass on NaN/NULL/tie-heavy
// data: the flat record kernel and, where the machine has it, the AVX2
// blocked filter (final on every verdict where the ±Inf collapse is exact,
// settled by the record compare on tied ones where it is not) must confirm
// exactly the same maxima from the same visit order.
func TestBlockedChainFilterAgreesWithGeneric(t *testing.T) {
	prev := AVX2Enabled()
	defer SetAVX2Enabled(prev)
	rng := rand.New(rand.NewSource(11))
	p := chainProduct3()
	for trial := 0; trial < 40; trial++ {
		rel := nanFloatRelation(rng, 20+rng.Intn(300))
		c, ok := pref.Compile(p, rel)
		if !ok {
			t.Fatal("chain product must compile")
		}
		keys, ok := c.SortKeys()
		if !ok {
			t.Fatal("chain product must be keyed")
		}
		order := allIndices(rel.Len())
		slices.SortFunc(order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
		generic := filterOn(c, DominanceTree, order)
		if c.Flat() == nil {
			t.Fatal("chain product must carry a flat shape")
		}
		if flat := filterOn(c, DominanceFlat, order); !sameIndices(generic, flat) {
			t.Fatalf("trial %d: flat kernel %v, generic %v", trial, flat, generic)
		}
		SetAVX2Enabled(false)
		if f := newMaximaFilter(c); f.leg != DominanceFlat {
			t.Fatal("no blocked store without the AVX2 kernel")
		} else {
			f.release()
		}
		if SetAVX2Enabled(true); AVX2Enabled() {
			if asm := filterOn(c, DominanceBlocksAVX2, order); !sameIndices(generic, asm) {
				t.Fatalf("trial %d: avx2 blocked filter %v, generic %v", trial, asm, generic)
			}
		}
	}
}

// TestBlockedSFSAgreesWithInterpreted runs the full compiled SFS (which
// dispatches the blocked filter for chain products) against the naive
// interpreted reference on the NaN-heavy workload.
func TestBlockedSFSAgreesWithInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := chainProduct3()
	for trial := 0; trial < 25; trial++ {
		rel := nanFloatRelation(rng, 20+rng.Intn(200))
		want := BMOIndicesMode(p, rel, Naive, EvalInterpreted)
		got := BMOIndicesMode(p, rel, SFS, EvalCompiled)
		if !sameIndices(got, want) {
			t.Fatalf("trial %d: compiled blocked SFS %v, interpreted naive %v", trial, got, want)
		}
	}
}

// antiFloat3 builds an anti-correlated 3-d float workload, the shape with
// a large maxima set — the filter pass dominates the run time there.
func antiFloat3(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("F", relation.MustSchema(
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
		relation.Column{Name: "d3", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		base := rng.Float64()
		r.MustInsert(relation.Row{
			base + 0.1*rng.Float64(),
			1 - base + 0.1*rng.Float64(),
			rng.Float64(),
		})
	}
	return r
}

// chainProductMin3 is the genuinely conflicting 3-d skyline (d1 and d2
// trade off in antiFloat3 under MIN/MIN).
func chainProductMin3() pref.Preference {
	return pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"))
}

// BenchmarkSFSChainFilter prices the filter pass of a chain product on
// both workload shapes (anti = large maxima set, corr = tiny) through
// each comparator: "tree" calls the compiled predicate tree per
// (candidate, maximum) pair, "flat" is the record kernel — what every
// build without the AVX2 kernel runs — and "avx2" the blocked assembly
// filter.
func BenchmarkSFSChainFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	rel := antiFloat3(rng, 20000)
	rel.Columnarize()
	for _, shape := range []struct {
		name string
		p    pref.Preference
	}{{"anti", chainProductMin3()}, {"corr", chainProduct3()}} {
		c, ok := pref.Compile(shape.p, rel)
		if !ok {
			b.Fatal("chain product must compile")
		}
		keys, _ := c.SortKeys()
		order := allIndices(rel.Len())
		slices.SortFunc(order, func(x, y int) int { return cmpKeyColumns(keys, x, y) })
		b.Run(shape.name+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				filterOn(c, DominanceTree, order)
			}
		})
		b.Run(shape.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				filterOn(c, DominanceFlat, order)
			}
		})
		b.Run(shape.name+"/avx2", func(b *testing.B) {
			if !AVX2Available() {
				b.Skip("no AVX2 kernel in this build")
			}
			prev := SetAVX2Enabled(true)
			defer SetAVX2Enabled(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				filterOn(c, DominanceBlocksAVX2, order)
			}
		})
	}
}
