package pref

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// flatTestTuples draws tuples that carry every attribute (so no leaf is
// presence-masked) with the values that separate a score tie from a
// projection tie: NULL, NaN, ±Inf, ±0, int/float twins and duplicates in
// the float columns A, B, C; ints beyond 2^53 in I, where neighbours share
// a float image and EqualValues — hence every tie operand — calls them
// equal; instants half a second apart in T, which tie on the Unix-second
// score scale but are not equal; a column Z clamped at 0 the way
// workload.Numeric clamps, so most rows tie there; a string column S.
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
	big := func() Value {
		if rng.Intn(10) == 0 {
			return nil
		}
		sign := int64(1 - 2*rng.Intn(2))
		return sign * (1<<53 + int64(rng.Intn(6))) // 2^53+1 and 2^53 share an image
	}
	instant := func() Value {
		if rng.Intn(10) == 0 {
			return nil
		}
		return time.Unix(int64(1_000_000+rng.Intn(3)), int64(rng.Intn(2))*500_000_000).UTC()
	}
	clamped := func() Value { return math.Max(0, float64(rng.Intn(9)-5)/4) }
	str := func() Value {
		if rng.Intn(8) == 0 {
			return nil
		}
		return []string{"red", "blue", "green", "gray"}[rng.Intn(4)]
	}
	out := make(mapSource, n)
	for i := range out {
		out[i] = MapTuple{"A": num(), "B": num(), "C": num(), "I": big(), "T": instant(), "Z": clamped(), "S": str()}
	}
	return out
}

// colSource serves flatTestTuples the way a schema-backed relation does:
// typed column images with on-scale masks (A, B, C, Z FLOAT, I INT, T
// TIME), equality codes on request — counted per attribute, so a test
// can pin who asks — and every attribute resolved on every row.
type colSource struct {
	mapSource
	eqAsked map[string]int
}

func newColSource(rows mapSource) *colSource {
	return &colSource{mapSource: rows, eqAsked: map[string]int{}}
}

func (s *colSource) FloatColumn(attr string) ([]float64, []bool, bool) {
	if attr == "S" || !s.Resolves(attr) {
		return nil, nil, false
	}
	vals, on := make([]float64, len(s.mapSource)), make([]bool, len(s.mapSource))
	for i, t := range s.mapSource {
		vals[i], on[i] = toScale(t[attr])
	}
	return vals, on, true
}

func (s *colSource) NumericColumn(attr string) ([]float64, []bool, bool) {
	if attr == "T" {
		return nil, nil, false
	}
	return s.FloatColumn(attr)
}

func (s *colSource) EqColumn(attr string) ([]uint32, bool) {
	if !s.Resolves(attr) {
		return nil, false
	}
	s.eqAsked[attr]++
	codes := make([]uint32, len(s.mapSource))
	dict := map[string]uint32{}
	for i, t := range s.mapSource {
		v := t[attr]
		if f, ok := v.(float64); ok && f != f {
			codes[i] = uint32(len(s.mapSource) + 1 + i) // every NaN its own class
			continue
		}
		k := ValueKey(v)
		if _, hit := dict[k]; !hit {
			dict[k] = uint32(len(dict) + 1)
		}
		codes[i] = dict[k]
	}
	return codes, true
}

func (s *colSource) Resolves(attr string) bool {
	_, ok := s.mapSource[0][attr]
	return ok
}

// flatTestLeaf draws a leaf of the flat fragment; attributes repeat
// across draws, so accumulations overlap like the paper's Example 3.
func flatTestLeaf(rng *rand.Rand) Preference {
	attr := []string{"A", "B", "C", "I", "T", "Z"}[rng.Intn(6)]
	target := float64(rng.Intn(5))
	switch attr {
	case "I":
		target = float64(int64(1<<53 + rng.Intn(6)))
	case "T":
		target = float64(1_000_000 + rng.Intn(3))
	case "Z":
		target = float64(rng.Intn(3)) / 4
	}
	switch rng.Intn(6) {
	case 0:
		return AROUND(attr, target)
	case 1:
		return MustBETWEEN(attr, target, target+float64(1+rng.Intn(2)))
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

// hasTie reports whether the dimension carries a tie operand (all but the
// single leaf of a final group do).
func hasTie(dim FlatDim) bool { return dim.Tie.Code != nil || dim.Tie.Val != nil }

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
			case hasTie(dim) && !dim.Tie.Equal(i, j):
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
// equality says; it is antisymmetric and reflexive-equal. Each trial runs
// twice: over the generic source (every tie on codes) and over the typed
// columnar one, where the INT/FLOAT attributes tie on their float image
// and T and S keep codes.
func TestFlatShapeAgreesWithTreeAndInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 150; trial++ {
		rows := flatTestTuples(rng, 40)
		p := flatTestTerm(rng)
		if !FlatShaped(p) {
			t.Fatalf("%s must be in the flat fragment", p)
		}
		checkFlatShape(t, trial, p, rows, rows)
		checkFlatShape(t, trial, p, rows, newColSource(rows))
	}
}

func checkFlatShape(t *testing.T, trial int, p Preference, rows mapSource, src Source) {
	t.Helper()
	_, typed := src.(NumericColumner)
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
	var leaves []Preference
	for _, g := range groups {
		leaves = append(leaves, g...)
	}
	for d, dim := range fs.Dims {
		loneFinal := d == len(fs.Dims)-1 && len(groups[len(groups)-1]) == 1
		if hasTie(dim) == loneFinal {
			t.Fatalf("%s: dim %d tie operand present=%v, single final leaf=%v", p, d, hasTie(dim), loneFinal)
		}
		attr := leaves[d].Attrs()[0]
		if onImage := typed && attr != "T" && attr != "S"; hasTie(dim) && (dim.Tie.Val != nil) != onImage {
			t.Fatalf("%s: dim %d over %s (typed source: %v) ties on the float image: %v", p, d, attr, typed, dim.Tie.Val != nil)
		}
	}
	mirror := [...]int{refEqual, refGreater, refLess, refIncomparable}
	for i := range rows {
		for j := range rows {
			if i == j {
				// EqualOn calls a NaN unequal to itself; a tie operand gives
				// every NaN occurrence its own class, equal to itself.
				continue
			}
			got := shapeCompare(fs, i, j)
			if want := oracleCompare(p, groups, rows[i], rows[j]); got != want {
				t.Fatalf("trial %d %s (typed %v): rows %v vs %v: shape %d, interpreted %d", trial, p, typed, rows[i], rows[j], got, want)
			}
			if (got == refLess) != c.Less(i, j) || (got == refGreater) != c.Less(j, i) {
				t.Fatalf("trial %d %s (typed %v): rows %d,%d: shape %d, tree less=%v greater=%v", trial, p, typed, i, j, got, c.Less(i, j), c.Less(j, i))
			}
			if back := shapeCompare(fs, j, i); back != mirror[got] {
				t.Fatalf("trial %d %s: rows %d,%d: %d one way, %d back", trial, p, i, j, got, back)
			}
			for d, dim := range fs.Dims {
				if hasTie(dim) && (dim.Tie.Key(i) == dim.Tie.Key(j)) != dim.Tie.Equal(i, j) {
					t.Fatalf("trial %d %s: dim %d rows %v / %v: keys %x %x, Equal %v", trial, p, d, rows[i], rows[j], dim.Tie.Key(i), dim.Tie.Key(j), dim.Tie.Equal(i, j))
				}
			}
		}
		if got := shapeCompare(fs, i, i); got != refEqual {
			t.Fatalf("trial %d %s: row %d against itself: %d", trial, p, i, got)
		}
	}
}

// TestNumericTermBindsWithoutCodes: binding a term whose attributes are
// all INT/FLOAT — flat shape and predicate tree alike — never asks the
// source for equality codes; a TIME or string attribute beside them asks
// for exactly its own, and so does a once-per-class leaf (POS) over a
// numeric attribute.
func TestNumericTermBindsWithoutCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rows := flatTestTuples(rng, 60)
	numeric := []Preference{
		Pareto(Pareto(AROUND("A", 2), AROUND("B", 1)), LOWEST("C")),
		Prioritized(Pareto(AROUND("A", 2), LOWEST("I")), LOWEST("Z")),
		Prioritized(LOWEST("C"), Pareto(AROUND("A", 2), LOWEST("B"))),
		Pareto(Dual(LOWEST("A")), HIGHEST("I")),                               // outside the fragment: tree only
		Pareto(Prioritized(LOWEST("A"), LOWEST("B")), MustBETWEEN("Z", 0, 1)), // & inside ⊗
	}
	for _, p := range numeric {
		src := newColSource(rows)
		if _, ok := Compile(p, src); !ok {
			t.Fatalf("%s must compile", p)
		}
		if len(src.eqAsked) != 0 {
			t.Fatalf("%s: a numeric-only bind asked for equality codes of %v", p, src.eqAsked)
		}
	}
	src := newColSource(rows)
	mixed := Pareto(Pareto(AROUND("A", 2), LOWEST("T")), Pareto(POS("S", "red"), POS("Z", 0.0)))
	if _, ok := Compile(mixed, src); !ok {
		t.Fatalf("%s must compile", mixed)
	}
	if len(src.eqAsked) != 3 || src.eqAsked["T"] != 1 || src.eqAsked["S"] != 1 || src.eqAsked["Z"] != 1 {
		t.Fatalf("%s: codes asked for %v, want T, S and Z once each", mixed, src.eqAsked)
	}
}

// imageSource is colSource with each float image derived once and then
// served by reference, the way a relation generation serves its typed
// columns.
type imageSource struct {
	*colSource
	vals map[string][]float64
	on   map[string][]bool
}

func (s *imageSource) FloatColumn(attr string) ([]float64, []bool, bool) {
	if v, ok := s.vals[attr]; ok {
		return v, s.on[attr], true
	}
	v, on, ok := s.colSource.FloatColumn(attr)
	if ok {
		s.vals[attr], s.on[attr] = v, on
	}
	return v, on, ok
}

// TestHighestSharesOnScaleImage: a HIGHEST leaf over a column whose every
// row is on scale (Z) binds to the source's image itself; over a column
// with NULL/NaN/±Inf rows (A) it keeps a copy scoring −Inf off scale, and
// a LOWEST over Z copies (its score is the negation). Either way the
// compiled order agrees with the interpreted one on every pair, and the
// image reads as it did before the bind.
func TestHighestSharesOnScaleImage(t *testing.T) {
	rows := flatTestTuples(rand.New(rand.NewSource(22)), 80)
	src := &imageSource{colSource: newColSource(rows), vals: map[string][]float64{}, on: map[string][]bool{}}
	for _, tc := range []struct {
		p      Preference
		attr   string
		shared bool
	}{
		{HIGHEST("Z"), "Z", true},
		{HIGHEST("A"), "A", false},
		{LOWEST("Z"), "Z", false},
	} {
		img, on, _ := src.FloatColumn(tc.attr)
		if allOn := !slices.Contains(on, false); allOn != (tc.attr == "Z") {
			t.Fatalf("test premise: column %s all on scale = %v", tc.attr, allOn)
		}
		before := slices.Clone(img)
		c, ok := Compile(tc.p, src)
		if !ok {
			t.Fatalf("%s must compile", tc.p)
		}
		s := c.ScoreVec(tc.p)
		if shared := &s[0] == &img[0]; shared != tc.shared {
			t.Fatalf("%s: score vector is the image = %v, want %v", tc.p, shared, tc.shared)
		}
		for i := range img {
			if math.Float64bits(img[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: bind wrote image row %d: %v, was %v", tc.p, i, img[i], before[i])
			}
			if !on[i] && s[i] != math.Inf(-1) {
				t.Fatalf("%s: off-scale row %d scores %v, want −Inf", tc.p, i, s[i])
			}
		}
		for i := range rows {
			for j := range rows {
				if got, want := c.Less(i, j), tc.p.Less(rows[i], rows[j]); got != want {
					t.Fatalf("%s: rows %v vs %v: compiled %v, interpreted %v", tc.p, rows[i], rows[j], got, want)
				}
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
