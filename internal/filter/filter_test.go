package filter

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/pref"
)

// memSource is a minimal pref.Source without columnar storage: compiling
// against it exercises the row-fallback path.
type memSource []pref.Tuple

func (s memSource) Len() int               { return len(s) }
func (s memSource) Tuple(i int) pref.Tuple { return s[i] }

// mapTuple is a map-backed tuple for source-agnostic tests.
type mapTuple map[string]pref.Value

func (t mapTuple) Get(attr string) (pref.Value, bool) {
	v, ok := t[attr]
	return v, ok
}

// columnarSource wraps rows from the relation package; tests build it via
// buildRelation in cache_test.go (a *relation.Relation through interfaces).

func randValue(rng *rand.Rand, kind int) pref.Value {
	switch kind {
	case 0: // numeric with edge cases
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return math.Inf(1)
		case 2:
			return math.NaN()
		default:
			return float64(rng.Intn(5))
		}
	case 1: // strings
		if rng.Intn(8) == 0 {
			return nil
		}
		return string(rune('a' + rng.Intn(4)))
	default: // times
		if rng.Intn(8) == 0 {
			return nil
		}
		return time.Unix(int64(rng.Intn(4)), int64(rng.Intn(2))*500_000_000)
	}
}

func randPred(rng *rand.Rand, depth int) Pred {
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			return &And{randPred(rng, depth-1), randPred(rng, depth-1)}
		case 1:
			return &Or{randPred(rng, depth-1), randPred(rng, depth-1)}
		default:
			return &Not{randPred(rng, depth-1)}
		}
	}
	attr := []string{"num", "str", "ts"}[rng.Intn(3)]
	switch rng.Intn(4) {
	case 0:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
		var lit pref.Value = float64(rng.Intn(5))
		if rng.Intn(6) == 0 {
			lit = math.NaN()
		}
		if rng.Intn(4) == 0 {
			lit = "b"
		}
		return &Cmp{Attr: attr, Op: op, Value: lit}
	case 1:
		return &In{Attr: attr, Set: pref.NewValueSet(float64(rng.Intn(5)), "a", "c"), Negate: rng.Intn(2) == 0}
	case 2:
		return &Like{Attr: attr, Pattern: []string{"a%", "%b", "_", "%"}[rng.Intn(4)]}
	default:
		return &IsNull{Attr: attr, Negate: rng.Intn(2) == 0}
	}
}

// TestCompileAgreesWithEval is the cross-evaluation property of the
// selection compiler: the bitmap must agree with the interpreted Eval on
// every row, for every predicate shape, over a source with no columnar
// storage (row fallback) — the relation-backed variant lives in the
// relation package's reach via psql tests and TestVectorizedClasses.
func TestCompileAgreesWithEval(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		src := make(memSource, n)
		for i := range src {
			src[i] = mapTuple{
				"num": randValue(rng, 0),
				"str": randValue(rng, 1),
				"ts":  randValue(rng, 2),
			}
		}
		p := randPred(rng, 2)
		checkSelection(t, fmt.Sprintf("seed %d %s", seed, p), Compile(p, src), p, src)
	}
}

// checkSelection holds a bound form to the interpreted predicate: its
// position list is ascending and holds exactly the rows Eval accepts, and
// Count is its length.
func checkSelection(t *testing.T, what string, cd *Compiled, p Pred, src pref.Source) {
	t.Helper()
	var want []int
	for i := 0; i < src.Len(); i++ {
		if p.Eval(src.Tuple(i)) {
			want = append(want, i)
		}
	}
	if got := cd.Indices(); !slices.Equal(got, want) || got == nil {
		t.Fatalf("%s: compiled selects %v (nil: %v), interpreted %v", what, got, got == nil, want)
	}
	if cd.Count() != len(want) || cd.Len() != src.Len() {
		t.Fatalf("%s: count %d of %d, want %d of %d", what, cd.Count(), cd.Len(), len(want), src.Len())
	}
}

// colSource serves memSource rows the way a schema-backed relation does:
// "num" as a FLOAT column image with an on-scale mask (NULLs off scale),
// and equality codes for every attribute, so Cmp leaves bind as vector
// scans and the other conditions once per distinct value.
type colSource struct {
	memSource
	vals    []float64
	onScale []bool
}

func newColSource(rows memSource) *colSource {
	s := &colSource{memSource: rows, vals: make([]float64, len(rows)), onScale: make([]bool, len(rows))}
	for i, t := range rows {
		v, _ := t.Get("num")
		s.vals[i], s.onScale[i] = pref.Numeric(v)
	}
	return s
}

func (s *colSource) NumericColumn(attr string) ([]float64, []bool, bool) {
	if attr != "num" {
		return nil, nil, false
	}
	return s.vals, s.onScale, true
}

func (s *colSource) EqColumn(attr string) ([]uint32, bool) {
	codes := make([]uint32, len(s.memSource))
	dict := map[string]uint32{}
	next := uint32(1) // dense, like a relation's: at most one new class per row
	for i, t := range s.memSource {
		v, ok := t.Get(attr)
		if !ok {
			return nil, false
		}
		k := pref.ValueKey(v)
		code, hit := dict[k]
		if f, isNum := v.(float64); !hit || isNum && f != f { // every NaN its own class
			code = next
			next++
			dict[k] = code
		}
		codes[i] = code
	}
	return codes, true
}

// edgeRows draws rows whose numeric column is mostly edge cases: NULL
// (off scale), NaN, ±Inf, ±0 and a small domain.
func edgeRows(rng *rand.Rand, n int) memSource {
	num := func() pref.Value {
		switch rng.Intn(10) {
		case 0:
			return nil
		case 1:
			return math.NaN()
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		case 4:
			return math.Copysign(0, -1)
		}
		return float64(rng.Intn(4))
	}
	src := make(memSource, n)
	for i := range src {
		src[i] = mapTuple{"num": num(), "str": randValue(rng, 1), "ts": randValue(rng, 2)}
	}
	return src
}

// TestOnePassSelectionAgreesWithEval: the position list of every tree
// shape the scan distinguishes — a lone vector comparison under each
// operator and each kind of literal (finite, ±0, ±Inf, NaN), conjunctions
// (left scan, right refine), disjunctions and negations (row-by-row
// test), dictionary leaves, a foreign predicate (row fallback) and random
// mixes — is exactly the rows Pred.Eval accepts, in order, over rows full
// of NaN and off-scale values; and each leaf binds in the class it
// should.
func TestOnePassSelectionAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lits := []float64{0, 1, 2.5, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for trial := 0; trial < 60; trial++ {
		rows := edgeRows(rng, 1+rng.Intn(70))
		src := newColSource(rows)
		for _, op := range ops {
			for _, lit := range lits {
				p := &Cmp{Attr: "num", Op: op, Value: lit}
				cd := Compile(p, src)
				checkSelection(t, fmt.Sprintf("trial %d single leaf", trial), cd, p, src)
				if v, d, r := cd.BindClasses(); v != 1 || d != 0 || r != 0 {
					t.Fatalf("%s must bind as one vector leaf, got (%d, %d, %d)", p, v, d, r)
				}
				q := &Cmp{Attr: "num", Op: ops[rng.Intn(len(ops))], Value: lits[rng.Intn(len(lits))]}
				for _, tree := range []Pred{
					&And{p, q}, &Or{p, q}, &Not{p}, &And{&Not{p}, q}, &Or{&And{p, q}, &Not{q}},
					&And{p, &Like{Attr: "str", Pattern: "a%"}},
					&And{&IsNull{Attr: "num"}, &Not{q}},
					&And{p, &foreignPred{threshold: 1}},
				} {
					checkSelection(t, fmt.Sprintf("trial %d connective", trial), Compile(tree, src), tree, src)
				}
			}
		}
		for k := 0; k < 20; k++ {
			p := randPred(rng, 3)
			checkSelection(t, fmt.Sprintf("trial %d random tree (columnar)", trial), Compile(p, src), p, src)
			checkSelection(t, fmt.Sprintf("trial %d random tree (row fallback)", trial), Compile(p, rows), p, rows)
		}
		foreign := &Or{&foreignPred{threshold: 2}, &Cmp{Attr: "num", Op: "<", Value: 1.0}}
		cd := Compile(foreign, src)
		checkSelection(t, fmt.Sprintf("trial %d foreign", trial), cd, foreign, src)
		if v, _, r := cd.BindClasses(); v != 1 || r != 1 || cd.Vectorized() {
			t.Fatalf("foreign tree bound (vector=%d, row=%d, vectorized=%v), want 1 vector + 1 row leaf", v, r, cd.Vectorized())
		}
	}
}

// TestLikeMatch pins LIKE wildcard semantics.
func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abdc", false},
		{"%", "", true},
		{"_", "", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// TestCompileConcurrent hammers Compile over one source from many
// goroutines under the race detector (make test runs -race).
func TestCompileConcurrent(t *testing.T) {
	src := memSource{mapTuple{"num": 1.0}, mapTuple{"num": 2.0}}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				p := &Cmp{Attr: "num", Op: ">", Value: float64(g % 3)}
				cd := Compile(p, src)
				var want []int
				for r := 0; r < src.Len(); r++ {
					if p.Eval(src.Tuple(r)) {
						want = append(want, r)
					}
				}
				if !slices.Equal(cd.Indices(), want) {
					done <- fmt.Errorf("goroutine %d: selected %v, want %v", g, cd.Indices(), want)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// foreignPred is a Pred implementation outside the built-in AST; its
// String does not capture its state, so it must never be keyed.
type foreignPred struct{ threshold float64 }

func (f *foreignPred) Eval(t pref.Tuple) bool {
	v, ok := t.Get("num")
	if !ok {
		return false
	}
	n, ok := pref.Numeric(v)
	return ok && n >= f.threshold
}
func (f *foreignPred) String() string { return "foreign()" }

// TestForeignPredsSelectOwnRows: two foreign predicates with identical
// renderings but different semantics select their own rows.
func TestForeignPredsSelectOwnRows(t *testing.T) {
	src := memSource{mapTuple{"num": 1.0}, mapTuple{"num": 2.0}, mapTuple{"num": 3.0}}
	a := Compile(&foreignPred{threshold: 2}, src)
	b := Compile(&foreignPred{threshold: 3}, src)
	if a.Count() != 2 || b.Count() != 1 {
		t.Fatalf("foreign predicates selected wrong rows: counts %d, %d", a.Count(), b.Count())
	}
}
