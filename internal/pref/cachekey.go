package pref

import (
	"strconv"
	"strings"

	"repro/internal/boundcache"
)

// CacheKey returns a canonical key that fully determines the term's
// semantics, for keying compile caches (see the engine's compile cache).
// It reports ok=false for terms that have no faithful key and must always
// bind fresh: SCORE and rank(F) carry opaque Go functions (their String
// renders only a label) — except a weighted-sum rank(F) built through
// RankWeighted over keyed parts, which keys by its exact weights — and
// foreign Preference implementations have unknown renderings.
//
// String() is NOT a faithful key — it renders for humans: string set
// values are unescaped (POS(c, {"red, blue"}) and POS(c, {"red","blue"})
// collide), and time values render at day precision. CacheKey instead
// encodes every domain value as a length-prefixed ValueKey (typed, full
// precision, nanosecond instants), so equal keys imply equal semantics.
func CacheKey(p Preference) (string, bool) {
	var b strings.Builder
	if !writeCacheKey(&b, p) {
		return "", false
	}
	return b.String(), true
}

// Cacheable reports whether the term has a faithful cache key.
func Cacheable(p Preference) bool {
	_, ok := CacheKey(p)
	return ok
}

// writeCacheKey appends p's canonical encoding, reporting false for terms
// outside the keyable fragment.
func writeCacheKey(b *strings.Builder, p Preference) bool {
	switch q := p.(type) {
	case *Score:
		return false
	case *RankPref:
		// A weighted sum is determined by its exact weights and parts; any
		// other F is an opaque function.
		if q.weights == nil {
			return false
		}
		b.WriteString("wsum(")
		for _, w := range q.weights {
			b.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
			b.WriteByte(' ')
		}
		for _, part := range q.parts {
			if !writeCacheKey(b, part) {
				return false
			}
			b.WriteByte(' ')
		}
		b.WriteByte(')')
		return true
	case *Pos:
		b.WriteString("pos(")
		boundcache.WriteKeyStr(b, q.attr)
		writeKeySet(b, q.posSet)
		b.WriteByte(')')
		return true
	case *Neg:
		b.WriteString("neg(")
		boundcache.WriteKeyStr(b, q.attr)
		writeKeySet(b, q.negSet)
		b.WriteByte(')')
		return true
	case *PosNeg:
		b.WriteString("posneg(")
		boundcache.WriteKeyStr(b, q.attr)
		writeKeySet(b, q.posSet)
		writeKeySet(b, q.negSet)
		b.WriteByte(')')
		return true
	case *PosPos:
		b.WriteString("pospos(")
		boundcache.WriteKeyStr(b, q.attr)
		writeKeySet(b, q.pos1)
		writeKeySet(b, q.pos2)
		b.WriteByte(')')
		return true
	case *Explicit:
		b.WriteString("explicit(")
		boundcache.WriteKeyStr(b, q.attr)
		for _, e := range q.edges {
			writeKeyValue(b, e.Worse)
			writeKeyValue(b, e.Better)
		}
		b.WriteByte(')')
		return true
	case *Around:
		b.WriteString("around(")
		boundcache.WriteKeyStr(b, q.attr)
		writeKeyFloat(b, q.z)
		b.WriteByte(')')
		return true
	case *Between:
		b.WriteString("between(")
		boundcache.WriteKeyStr(b, q.attr)
		writeKeyFloat(b, q.low)
		writeKeyFloat(b, q.up)
		b.WriteByte(')')
		return true
	case *Lowest:
		b.WriteString("lowest(")
		boundcache.WriteKeyStr(b, q.attr)
		b.WriteByte(')')
		return true
	case *Highest:
		b.WriteString("highest(")
		boundcache.WriteKeyStr(b, q.attr)
		b.WriteByte(')')
		return true
	case *AntiChainPref:
		b.WriteString("antichain(")
		for _, a := range q.attrs {
			boundcache.WriteKeyStr(b, a)
		}
		b.WriteByte(')')
		return true
	case *DualPref:
		return writeKeyNode(b, "dual", q.Inner())
	case *ParetoPref:
		return writeKeyNode(b, "pareto", q.Left(), q.Right())
	case *PrioritizedPref:
		return writeKeyNode(b, "prior", q.Left(), q.Right())
	case *IntersectionPref:
		return writeKeyNode(b, "inter", q.Left(), q.Right())
	case *DisjointUnionPref:
		return writeKeyNode(b, "union", q.Left(), q.Right())
	case *LinearSumPref:
		b.WriteString("linsum(")
		boundcache.WriteKeyStr(b, q.attr)
		if !writeCacheKey(b, q.p1) || !writeCacheKey(b, q.p2) {
			return false
		}
		writeKeySet(b, q.dom1)
		writeKeySet(b, q.dom2)
		b.WriteByte(')')
		return true
	case *ProductPref:
		return writeKeyNode(b, "prod", q.Parts()...)
	}
	return false
}

// writeKeyNode encodes an accumulation node with its sub-term keys.
func writeKeyNode(b *strings.Builder, tag string, parts ...Preference) bool {
	b.WriteString(tag)
	b.WriteByte('(')
	for _, part := range parts {
		if !writeCacheKey(b, part) {
			return false
		}
		b.WriteByte(' ')
	}
	b.WriteByte(')')
	return true
}

// writeKeyValue appends a length-prefixed ValueKey encoding.
func writeKeyValue(b *strings.Builder, v Value) {
	boundcache.WriteKeyStr(b, ValueKey(v))
}

// writeKeySet appends a value set in its (deduplicated) insertion order.
// Order-insensitive equality is not canonicalized: two permutations of
// one set key differently, which costs a cache hit, never correctness.
func writeKeySet(b *strings.Builder, s *ValueSet) {
	b.WriteByte('{')
	if s != nil {
		for _, v := range s.Values() {
			writeKeyValue(b, v)
		}
	}
	b.WriteByte('}')
}

// writeKeyFloat appends an exact (hex mantissa) float encoding.
func writeKeyFloat(b *strings.Builder, f float64) {
	b.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
	b.WriteByte(' ')
}
