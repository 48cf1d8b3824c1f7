package pref

import (
	"math"
	"math/rand"
	"testing"
)

// flatTestTuples draws tuples that carry every attribute (so no leaf is
// presence-masked) with the values that separate a score tie from a
// projection tie: NULL, NaN, ±Inf, ±0, int/float twins and duplicates.
func flatTestTuples(rng *rand.Rand, n int) mapSource {
	num := func() Value {
		switch rng.Intn(14) {
		case 0:
			return nil
		case 1:
			return math.NaN()
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		case 4:
			return 0.0
		case 5:
			return math.Copysign(0, -1)
		case 6:
			return int64(rng.Intn(5)) // the int twin of a float below
		}
		return float64(rng.Intn(5))
	}
	str := func() Value {
		if rng.Intn(8) == 0 {
			return nil
		}
		return []string{"red", "blue", "green", "gray"}[rng.Intn(4)]
	}
	out := make(mapSource, n)
	for i := range out {
		out[i] = MapTuple{"A": num(), "B": num(), "C": num(), "S": str()}
	}
	return out
}

// flatTestLeaf draws a leaf of the flat fragment; attributes repeat
// across draws, so accumulations overlap like the paper's Example 3.
func flatTestLeaf(rng *rand.Rand) Preference {
	attr := []string{"A", "B", "C"}[rng.Intn(3)]
	switch rng.Intn(6) {
	case 0:
		return AROUND(attr, float64(rng.Intn(5)))
	case 1:
		return MustBETWEEN(attr, 1, float64(2+rng.Intn(2)))
	case 2:
		return LOWEST(attr)
	case 3:
		return HIGHEST(attr)
	case 4:
		return POS("S", "red", "green")
	}
	return NEG("S", "blue")
}

// flatTestTerm draws a term inside the fragment in every nesting the
// lowering must flatten.
func flatTestTerm(rng *rand.Rand) Preference {
	a, b, c, d := flatTestLeaf(rng), flatTestLeaf(rng), flatTestLeaf(rng), flatTestLeaf(rng)
	switch rng.Intn(10) {
	case 0:
		return a
	case 1:
		return Pareto(a, b)
	case 2:
		return Prioritized(a, b)
	case 3:
		return Prioritized(Pareto(a, b), c)
	case 4:
		return Prioritized(a, Pareto(b, c))
	case 5:
		return Pareto(Pareto(a, b), Pareto(c, d))
	case 6:
		return ParetoProduct(a, Pareto(b, c), d)
	case 7:
		return Prioritized(Prioritized(a, Pareto(b, c)), d)
	case 8:
		return Prioritized(a, Prioritized(b, c))
	}
	return Prioritized(ParetoProduct(a, b, c), Pareto(d, a))
}

// flatGroupsOf is the test's own reading of a fragment term: the leaves
// of each Pareto group, groups in priority order.
func flatGroupsOf(p Preference) [][]Preference {
	if q, ok := p.(*PrioritizedPref); ok {
		return append(flatGroupsOf(q.Left()), flatGroupsOf(q.Right())...)
	}
	var leaves func(p Preference) []Preference
	leaves = func(p Preference) []Preference {
		switch q := p.(type) {
		case *ParetoPref:
			return append(leaves(q.Left()), leaves(q.Right())...)
		case *ProductPref:
			var out []Preference
			for _, part := range q.Parts() {
				out = append(out, leaves(part)...)
			}
			return out
		}
		return []Preference{p}
	}
	return [][]Preference{leaves(p)}
}

// Outcomes of the reference three-way test.
const (
	refEqual = iota
	refLess
	refGreater
	refIncomparable
)

// shapeCompare evaluates a FlatShape column-major, straight from its
// definition: the reference the engine's row-major kernel is a layout
// change of.
func shapeCompare(fs *FlatShape, i, j int) int {
	d := 0
	for _, end := range fs.Ends {
		lt, gt := false, false
		for ; d < end; d++ {
			dim := fs.Dims[d]
			switch x, y := dim.Score[i], dim.Score[j]; {
			case x < y:
				lt = true
			case x > y:
				gt = true
			case dim.Code != nil && dim.Code[i] != dim.Code[j]:
				return refIncomparable
			}
		}
		switch {
		case lt && gt:
			return refIncomparable
		case lt:
			return refLess
		case gt:
			return refGreater
		}
	}
	return refEqual
}

// oracleCompare derives the three-way outcome from the interpreted
// preference and projection equality alone.
func oracleCompare(p Preference, groups [][]Preference, x, y Tuple) int {
	switch {
	case p.Less(x, y):
		return refLess
	case p.Less(y, x):
		return refGreater
	}
	for g, leaves := range groups {
		if g == len(groups)-1 && len(leaves) == 1 {
			// The single final leaf: unranked is all anyone asks of it.
			return refEqual
		}
		for _, leaf := range leaves {
			if !EqualOn(x, y, leaf.Attrs()) {
				return refIncomparable
			}
		}
	}
	return refEqual
}

// TestFlatShapeAgreesWithTreeAndInterpreted: for random fragment terms
// over NULL/NaN/±Inf/±0/duplicate-heavy tuples, the flat shape's
// three-way outcome on every pair equals what the predicate tree says
// (Less both ways) and what the interpreted preference plus projection
// equality says; it is antisymmetric and reflexive-equal.
func TestFlatShapeAgreesWithTreeAndInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 150; trial++ {
		src := flatTestTuples(rng, 40)
		p := flatTestTerm(rng)
		if !FlatShaped(p) {
			t.Fatalf("%s must be in the flat fragment", p)
		}
		c, ok := Compile(p, src)
		if !ok {
			t.Fatalf("%s must compile", p)
		}
		fs := c.Flat()
		if fs == nil {
			t.Fatalf("%s over fully present tuples must lower to a flat shape", p)
		}
		groups := flatGroupsOf(p)
		if len(groups) != len(fs.Ends) || fs.Ends[len(fs.Ends)-1] != len(fs.Dims) {
			t.Fatalf("%s: %d groups, shape ends %v over %d dims", p, len(groups), fs.Ends, len(fs.Dims))
		}
		for d, dim := range fs.Dims {
			loneFinal := d == len(fs.Dims)-1 && len(groups[len(groups)-1]) == 1
			if (dim.Code == nil) != loneFinal {
				t.Fatalf("%s: dim %d code column present=%v, single final leaf=%v", p, d, dim.Code != nil, loneFinal)
			}
		}
		mirror := [...]int{refEqual, refGreater, refLess, refIncomparable}
		for i := range src {
			for j := range src {
				if i == j {
					// EqualOn calls a NaN unequal to itself; the codes give
					// every NaN occurrence its own class, equal to itself.
					continue
				}
				got := shapeCompare(fs, i, j)
				if want := oracleCompare(p, groups, src[i], src[j]); got != want {
					t.Fatalf("trial %d %s: rows %v vs %v: shape %d, interpreted %d", trial, p, src[i], src[j], got, want)
				}
				if (got == refLess) != c.Less(i, j) || (got == refGreater) != c.Less(j, i) {
					t.Fatalf("trial %d %s: rows %d,%d: shape %d, tree less=%v greater=%v", trial, p, i, j, got, c.Less(i, j), c.Less(j, i))
				}
				if back := shapeCompare(fs, j, i); back != mirror[got] {
					t.Fatalf("trial %d %s: rows %d,%d: %d one way, %d back", trial, p, i, j, got, back)
				}
			}
			if got := shapeCompare(fs, i, i); got != refEqual {
				t.Fatalf("trial %d %s: row %d against itself: %d", trial, p, i, got)
			}
		}
	}
}

// TestFlatShapeFragmentBoundary: terms outside the fragment, and fragment
// terms over a source with an absent attribute, report no shape — they
// keep comparing through the tree (whose agreement the compile tests pin).
func TestFlatShapeFragmentBoundary(t *testing.T) {
	explicit := MustEXPLICIT("S", []Edge{{Worse: "blue", Better: "red"}})
	rank := Rank("F", WeightedSum(1, 1), AROUND("A", 2), HIGHEST("B"))
	outside := []Preference{
		explicit,
		Pareto(LOWEST("A"), explicit),
		Prioritized(explicit, LOWEST("A")),
		Dual(LOWEST("A")),
		Pareto(Dual(AROUND("A", 1)), LOWEST("B")),
		MustIntersection(Prioritized(LOWEST("A"), HIGHEST("B")), Prioritized(HIGHEST("B"), LOWEST("A"))),
		MustDisjointUnion(POS("A", int64(1)), NEG("A", int64(0))),
		Pareto(Prioritized(LOWEST("A"), LOWEST("B")), HIGHEST("C")), // & inside ⊗
		rank,
		AntiChain("A"),
		Prioritized(AntiChain("C"), LOWEST("A")),
	}
	rng := rand.New(rand.NewSource(16))
	src := flatTestTuples(rng, 20)
	for _, p := range outside {
		if FlatShaped(p) {
			t.Errorf("%s must be outside the flat fragment", p)
		}
		if c, ok := Compile(p, src); ok && c.Flat() != nil {
			t.Errorf("%s lowered to a flat shape", p)
		}
	}
	// Inside the fragment, but one tuple lacks B: the B leaf is masked.
	p := Prioritized(Pareto(LOWEST("A"), AROUND("B", 2)), HIGHEST("C"))
	masked := append(mapSource{}, src...)
	masked[3] = MapTuple{"A": 1.0, "C": 2.0, "S": "red"}
	c, ok := Compile(p, masked)
	if !ok || c.Flat() != nil {
		t.Fatalf("a presence-masked leaf must keep the tree: ok=%v flat=%v", ok, c.Flat())
	}
	if c, _ := Compile(p, src); c.Flat() == nil {
		t.Fatal("the same term over fully present tuples must lower")
	}
}
