package quality

import (
	"math"

	"repro/internal/pref"
)

// Compiled quality evaluation: LevelVec and DistanceVec materialize the
// per-row quality measures of §6.1 as flat float64 vectors, and
// Condition.Bind lowers one BUT ONLY constraint to a threshold scan over
// such a vector. A quality cascade over an index-chained query then
// filters row positions with no boxed tuple in sight. The vectors are
// per-statement state: they live as long as the predicate Bind returns.
// The compiled predicates agree with the interpreted Condition.Eval on
// every row; the cross-evaluation tests assert exactly that.

// LevelVec materializes the discrete quality levels of Definition 6 for a
// base preference over a source: vec[i] = Level(p, src.Tuple(i)), with
// NaN marking rows where the level is undefined (attribute absent — the
// fail-closed rows of the BUT ONLY filter). It reports ok=false when the
// preference has no level function (numerical base preferences use
// DISTANCE instead). The level function runs once per distinct value
// class via the source's cached equality codes when it maintains them.
func LevelVec(p pref.Preference, src pref.Source) ([]float64, bool) {
	switch q := p.(type) {
	case *pref.Pos:
		return levelsOf(src, q.Attr(), func(v pref.Value) int {
			if q.PosSet().Contains(v) {
				return 1
			}
			return 2
		}), true
	case *pref.Neg:
		return levelsOf(src, q.Attr(), func(v pref.Value) int {
			if q.NegSet().Contains(v) {
				return 2
			}
			return 1
		}), true
	case *pref.PosNeg:
		return levelsOf(src, q.Attr(), func(v pref.Value) int {
			switch {
			case q.PosSet().Contains(v):
				return 1
			case q.NegSet().Contains(v):
				return 3
			}
			return 2
		}), true
	case *pref.PosPos:
		return levelsOf(src, q.Attr(), func(v pref.Value) int {
			switch {
			case q.Pos1Set().Contains(v):
				return 1
			case q.Pos2Set().Contains(v):
				return 2
			}
			return 3
		}), true
	case *pref.Explicit:
		return levelsOf(src, q.Attr(), func(v pref.Value) int {
			return explicitLevel(q, v)
		}), true
	case *pref.AntiChainPref:
		vec := make([]float64, src.Len())
		for i := range vec {
			vec[i] = 1
		}
		return vec, true
	}
	return nil, false
}

// levelsOf materializes one level vector: through the source's equality
// codes when available (the level function runs once per distinct value
// class), through a ValueKey memo otherwise. Rows lacking the attribute
// carry NaN, mirroring Level's ok=false. (pref's classScoreLeaf is the
// same once-per-class kernel with different encodings — negated levels,
// −Inf absence — and compiler-internal state; the two stay separate
// deliberately.)
func levelsOf(src pref.Source, attr string, level func(pref.Value) int) []float64 {
	n := src.Len()
	vec := make([]float64, n)
	if ec, ok := src.(pref.EqColumner); ok {
		if codes, ok := ec.EqColumn(attr); ok {
			byCode := make([]float64, n+2) // codes are dense and bounded by n+1
			seen := make([]bool, n+2)
			for i := 0; i < n; i++ {
				code := codes[i]
				if !seen[code] {
					v, _ := src.Tuple(i).Get(attr)
					byCode[code] = float64(level(v))
					seen[code] = true
				}
				vec[i] = byCode[code]
			}
			return vec
		}
	}
	memo := make(map[string]float64)
	for i := 0; i < n; i++ {
		v, ok := src.Tuple(i).Get(attr)
		if !ok {
			vec[i] = math.NaN()
			continue
		}
		k := pref.ValueKey(v)
		l, hit := memo[k]
		if !hit {
			l = float64(level(v))
			memo[k] = l
		}
		vec[i] = l
	}
	return vec
}

// DistanceVec materializes the continuous quality distances of Definition
// 7 for a base preference over a source: vec[i] = Distance(p,
// src.Tuple(i)). AROUND and BETWEEN read the typed float column when the
// source maintains one (a branch-free vector map; off-scale and absent
// rows carry +Inf, like the interpreted path); other Scorers negate their
// score once per row at bind time. ok=false when the preference has no
// distance function.
func DistanceVec(p pref.Preference, src pref.Source) ([]float64, bool) {
	switch q := p.(type) {
	case *pref.Around:
		z := q.Target()
		return distancesOf(src, q.Attr(),
			func(v float64) float64 { return math.Abs(v - z) },
			q.Distance), true
	case *pref.Between:
		low, up := q.Bounds()
		return distancesOf(src, q.Attr(),
			func(v float64) float64 {
				switch {
				case v < low:
					return low - v
				case v > up:
					return v - up
				}
				return 0
			},
			q.Distance), true
	case pref.Scorer:
		vec := make([]float64, src.Len())
		for i := range vec {
			vec[i] = -q.ScoreOf(src.Tuple(i))
		}
		return vec, true
	}
	return nil, false
}

// distancesOf materializes one distance vector, preferring the typed
// column fast path. fast maps an on-scale value (the same toScale image
// the interpreted Distance uses); slow handles everything else.
func distancesOf(src pref.Source, attr string, fast func(float64) float64, slow func(pref.Value) float64) []float64 {
	n := src.Len()
	vec := make([]float64, n)
	if fc, ok := src.(pref.FloatColumner); ok {
		if vals, onScale, ok := fc.FloatColumn(attr); ok {
			for i := range vec {
				if onScale[i] {
					vec[i] = fast(vals[i])
				} else {
					vec[i] = math.Inf(1)
				}
			}
			return vec
		}
	}
	for i := 0; i < n; i++ {
		v, ok := src.Tuple(i).Get(attr)
		if !ok {
			vec[i] = math.Inf(1)
			continue
		}
		vec[i] = slow(v)
	}
	return vec
}

// Bind compiles the condition against a source: the quality measure of
// the attribute's base preference materializes as a flat vector and the
// threshold comparison runs per row position
// with no tuple access — the vector-scan twin of Eval, agreeing with it
// on every row. Conditions that can never hold (unknown attribute or
// kind, preference without the measure) compile to a constant-false
// predicate, exactly like Eval's fail-closed answer.
func (c Condition) Bind(byAttr map[string]pref.Preference, src pref.Source) func(i int) bool {
	never := func(int) bool { return false }
	p, ok := byAttr[c.Attr]
	if !ok {
		return never
	}
	var vec []float64
	guardNaN := false
	switch c.Kind {
	case "level":
		// NaN encodes "level undefined at this row" (absent attribute)
		// and must fail closed under every operator, including <>.
		// Distance vectors carry no such sentinel: a genuine NaN measure
		// flows through the comparison with Go's float semantics, as in
		// Eval.
		vec, ok = LevelVec(p, src)
		guardNaN = true
	case "distance":
		vec, ok = DistanceVec(p, src)
	default:
		return never
	}
	if !ok {
		return never
	}
	th := c.Threshold
	var cmp func(float64) bool
	switch c.Op {
	case "<":
		cmp = func(m float64) bool { return m < th }
	case "<=":
		cmp = func(m float64) bool { return m <= th }
	case "=":
		cmp = func(m float64) bool { return m == th }
	case ">=":
		cmp = func(m float64) bool { return m >= th }
	case ">":
		cmp = func(m float64) bool { return m > th }
	case "<>":
		cmp = func(m float64) bool { return m != th }
	default:
		return never
	}
	if guardNaN {
		inner := cmp
		cmp = func(m float64) bool { return !math.IsNaN(m) && inner(m) }
	}
	return func(i int) bool { return cmp(vec[i]) }
}

// MeasureCacheStats reports 0, 0: there is no quality-vector cache. The
// benchmark harness still calls it.
func MeasureCacheStats() (hits, misses uint64) { return 0, 0 }

// ResetMeasureCache does nothing: there is no quality-vector cache. The
// benchmark harness still calls it.
func ResetMeasureCache() {}
