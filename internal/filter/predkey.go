package filter

import (
	"strings"

	"repro/internal/boundcache"
	"repro/internal/pref"
)

// PredKey derives a canonical key for a condition tree, ok=false for
// trees containing foreign Pred implementations. The engine's result
// cache composes it into its own keys so a cached BMO answer is scoped to
// the exact WHERE clause it was computed under. Unlike String(), which
// renders SQL for humans (day-precision times, no type tags), the key
// encodes values through pref.ValueKey and length-prefixes every string
// component (attribute names, patterns can contain any byte), so equal
// keys imply equal semantics.
func PredKey(p Pred) (string, bool) {
	var b strings.Builder
	if !writePredKey(&b, p) {
		return "", false
	}
	return b.String(), true
}

func writePredKey(b *strings.Builder, p Pred) bool {
	switch q := p.(type) {
	case *And:
		b.WriteString("(and ")
		ok := writePredKey(b, q.L)
		b.WriteByte(' ')
		ok = writePredKey(b, q.R) && ok
		b.WriteByte(')')
		return ok
	case *Or:
		b.WriteString("(or ")
		ok := writePredKey(b, q.L)
		b.WriteByte(' ')
		ok = writePredKey(b, q.R) && ok
		b.WriteByte(')')
		return ok
	case *Not:
		b.WriteString("(not ")
		ok := writePredKey(b, q.E)
		b.WriteByte(')')
		return ok
	case *Cmp:
		b.WriteString("(cmp ")
		boundcache.WriteKeyStr(b, q.Attr)
		boundcache.WriteKeyStr(b, q.Op)
		boundcache.WriteKeyStr(b, pref.ValueKey(q.Value))
		b.WriteByte(')')
		return true
	case *In:
		if q.Negate {
			b.WriteString("(notin ")
		} else {
			b.WriteString("(in ")
		}
		boundcache.WriteKeyStr(b, q.Attr)
		for _, v := range q.Set.Values() {
			boundcache.WriteKeyStr(b, pref.ValueKey(v))
		}
		b.WriteByte(')')
		return true
	case *Like:
		b.WriteString("(like ")
		boundcache.WriteKeyStr(b, q.Attr)
		boundcache.WriteKeyStr(b, q.Pattern)
		b.WriteByte(')')
		return true
	case *IsNull:
		if q.Negate {
			b.WriteString("(notnull ")
		} else {
			b.WriteString("(null ")
		}
		boundcache.WriteKeyStr(b, q.Attr)
		b.WriteByte(')')
		return true
	}
	return false
}

// CompileCached is Compile: a selection's bitmap is per-statement state.
// The benchmark harness still calls it.
func CompileCached(p Pred, src pref.Source) *Compiled { return Compile(p, src) }

// CacheStats reports 0, 0: there is no selection cache. The benchmark
// harness still calls it.
func CacheStats() (hits, misses uint64) { return 0, 0 }

// ResetCache does nothing: there is no selection cache. The benchmark
// harness still calls it.
func ResetCache() {}
