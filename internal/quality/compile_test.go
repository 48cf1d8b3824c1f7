package quality

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// qualityRel builds the cross-evaluation fixture: discrete and numeric
// columns, with NULLs and NaNs sprinkled in.
func qualityRel(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New("shop", relation.MustSchema(
		relation.Column{Name: "color", Type: relation.String},
		relation.Column{Name: "price", Type: relation.Float},
		relation.Column{Name: "qty", Type: relation.Int},
	))
	colors := []string{"red", "blue", "gray", "green"}
	for i := 0; i < n; i++ {
		var price pref.Value = math.Floor(rng.Float64() * 50)
		switch rng.Intn(12) {
		case 0:
			price = nil
		case 1:
			price = math.NaN()
		}
		r.MustInsert(relation.Row{colors[rng.Intn(len(colors))], price, int64(rng.Intn(9))})
	}
	return r
}

// basePrefs returns one preference per constructor the quality layer
// covers, keyed by the attribute BUT ONLY would resolve them under.
func basePrefs() map[string]pref.Preference {
	return map[string]pref.Preference{
		"pos":    pref.POS("color", "red"),
		"neg":    pref.NEG("color", "gray"),
		"posneg": pref.MustPOSNEG("color", []pref.Value{"red"}, []pref.Value{"gray"}),
		"pospos": pref.MustPOSPOS("color", []pref.Value{"red"}, []pref.Value{"blue"}),
		"explicit": pref.MustEXPLICIT("color", []pref.Edge{
			{Worse: "blue", Better: "red"},
			{Worse: "gray", Better: "blue"},
		}),
		"antichain": pref.AntiChain("color"),
		"around":    pref.AROUND("price", 25),
		"between":   pref.MustBETWEEN("price", 10, 30),
		"lowest":    pref.LOWEST("price"),
		"highest":   pref.HIGHEST("qty"),
		"rank":      pref.Rank("F", pref.WeightedSum(1, 2), pref.AROUND("price", 25), pref.HIGHEST("qty")),
	}
}

// TestLevelVecAgreesWithLevel: the columnar level vector must equal the
// per-tuple Level on every row, with NaN standing in for "undefined",
// across every base constructor.
func TestLevelVecAgreesWithLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rel := qualityRel(rng, 300)
	for name, p := range basePrefs() {
		vec, ok := LevelVec(p, rel)
		for i := 0; i < rel.Len(); i++ {
			l, lok := Level(p, rel.Tuple(i))
			if !ok {
				if lok {
					t.Fatalf("%s: LevelVec reports no level function but Level is defined", name)
				}
				continue
			}
			switch {
			case lok && (math.IsNaN(vec[i]) || vec[i] != float64(l)):
				t.Fatalf("%s row %d: vec=%v Level=%d", name, i, vec[i], l)
			case !lok && !math.IsNaN(vec[i]):
				t.Fatalf("%s row %d: undefined level must be NaN, got %v", name, i, vec[i])
			}
		}
	}
}

// mapSource adapts MapTuples to pref.Source — no columnar storage, with
// genuinely absent attributes, so the fallback paths (ValueKey memo, NaN
// sentinel) are exercised.
type mapSource []pref.MapTuple

func (s mapSource) Len() int               { return len(s) }
func (s mapSource) Tuple(i int) pref.Tuple { return s[i] }

func TestLevelVecAbsentAttributes(t *testing.T) {
	src := mapSource{
		{"color": "red"},
		{},
		{"color": "blue"},
	}
	vec, ok := LevelVec(pref.POS("color", "red"), src)
	if !ok {
		t.Fatal("POS has a level function")
	}
	if vec[0] != 1 || !math.IsNaN(vec[1]) || vec[2] != 2 {
		t.Fatalf("vec = %v", vec)
	}
}

// TestDistanceVecAgreesWithDistance mirrors the level test for the
// continuous measure.
func TestDistanceVecAgreesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	rel := qualityRel(rng, 300)
	for name, p := range basePrefs() {
		vec, ok := DistanceVec(p, rel)
		for i := 0; i < rel.Len(); i++ {
			d, dok := Distance(p, rel.Tuple(i))
			if ok != dok {
				t.Fatalf("%s row %d: DistanceVec ok=%v, Distance ok=%v", name, i, ok, dok)
			}
			if !ok {
				break
			}
			if vec[i] != d && !(math.IsNaN(vec[i]) && math.IsNaN(d)) {
				t.Fatalf("%s row %d: vec=%v Distance=%v", name, i, vec[i], d)
			}
		}
	}
}

// TestConditionBindAgreesWithEval is the randomized cross-evaluation of
// the compiled BUT ONLY layer: every (kind, attr, op, threshold) drawn at
// random must filter exactly like the interpreted Eval, NaN and NULL rows
// included.
func TestConditionBindAgreesWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rel := qualityRel(rng, 200)
	byAttr := map[string]pref.Preference{
		"color": pref.POS("color", "red"),
		"price": pref.AROUND("price", 25),
		"qty":   pref.HIGHEST("qty"),
	}
	kinds := []string{"level", "distance", "bogus"}
	attrs := []string{"color", "price", "qty", "unknown"}
	ops := []string{"<", "<=", "=", ">=", ">", "<>", "!!"}
	for trial := 0; trial < 300; trial++ {
		c := Condition{
			Kind:      kinds[rng.Intn(len(kinds))],
			Attr:      attrs[rng.Intn(len(attrs))],
			Op:        ops[rng.Intn(len(ops))],
			Threshold: math.Floor(rng.Float64()*8) - 2,
		}
		keep := c.Bind(byAttr, rel)
		for i := 0; i < rel.Len(); i++ {
			if got, want := keep(i), c.Eval(byAttr, rel.Tuple(i)); got != want {
				t.Fatalf("trial %d %s row %d: compiled=%v interpreted=%v", trial, c, i, got, want)
			}
		}
	}
}
