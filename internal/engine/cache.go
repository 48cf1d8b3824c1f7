package engine

import (
	"repro/internal/boundcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// The compile cache: bound preference forms (pref.Compiled) keyed by
// relation identity, the relation's mutation counter and the term's
// canonical rendering (see internal/boundcache for the shared mechanics).
// BMOIndices used to compile the same term afresh on every call; with the
// cache, repeated queries over an unchanged relation — the workload
// auto-administration studies target — reuse the flat score vectors,
// ordinal codes and rank transforms outright. Terms are keyed by
// pref.CacheKey — a canonical, semantics-faithful encoding, NOT String()
// (see cachekey.go for why the human rendering collides) — rather than
// pointer identity, so a re-parsed Preference SQL statement hits the
// entry its previous execution left; terms without a faithful key
// (SCORE/rank(F) opaque functions, day-rendered time values) bypass the
// cache and bind fresh. Any Insert/SortBy bumps relation.Version and
// strands the
// stale entries (evicted lazily); a pref.Compiled is immutable after
// Compile, so sharing one bound form across queries and goroutines is
// safe.

// compileCacheCap bounds the number of cached bound forms.
const compileCacheCap = 128

// compileEntry also caches negative outcomes: a structurally compilable
// term can still fail to bind (ordinal-coding cap), and re-discovering
// that per query would cost a full bind attempt.
type compileEntry struct {
	c *pref.Compiled
}

var compileCache = boundcache.New[compileEntry](compileCacheCap)

// keyedTerm is a preference with its canonical cache rendering
// (pref.CacheKey), derived once per evaluation call and shared by every
// probe that call makes — the subset rule's cache peek, the bind's lookup
// and store, the result key — on every shard it fans out to. keyed=false
// marks a term without a faithful key: it always binds fresh.
type keyedTerm struct {
	p     pref.Preference
	term  string
	keyed bool
}

// keyTerm renders p's cache key.
func keyTerm(p pref.Preference) keyedTerm {
	term, keyed := pref.CacheKey(p)
	return keyedTerm{p: p, term: term, keyed: keyed}
}

// compileKey returns the compile-cache key of the term over r's current
// version. Two classes of input have none and always bind fresh: terms
// without a faithful cache key, and ephemeral relations (query
// intermediates built by Pick/Select — their identity is new per query,
// so an entry could never hit again and would only pin the materialized
// rows until eviction).
func (kt keyedTerm) compileKey(r *relation.Relation) (boundcache.Key, bool) {
	if !kt.keyed || r == nil || r.Ephemeral() {
		return boundcache.Key{}, false
	}
	return boundcache.Key{Src: r, Version: r.Version(), Term: kt.term}, true
}

// cachedCompile returns the whole-relation bound form of the term over r
// through the compile cache (nil when binding fails) and whether the cache
// served it. Callers have already checked pref.Compilable. Gathered binds
// never come through here: they bypass the cache by construction (bind.go).
func cachedCompile(kt keyedTerm, r *relation.Relation) (c *pref.Compiled, hit bool) {
	key, keyed := kt.compileKey(r)
	if keyed {
		if e, hit := compileCache.Get(key); hit {
			return e.c, true
		}
	}
	c, ok := pref.Compile(kt.p, r)
	if !ok {
		c = nil
	}
	if keyed {
		compileCache.Put(key, compileEntry{c: c})
	}
	return c, false
}

// CompileCached reports whether a bound form of p over r's current version
// is already in the compile cache, without compiling. EXPLAIN uses it to
// report compile-cache status. Cached negative outcomes (terms that failed
// to bind) do not count: no bound form exists to reuse.
func CompileCached(p pref.Preference, r *relation.Relation) bool {
	return keyTerm(p).compileCached(r)
}

// compileCached is CompileCached over an already rendered key.
func (kt keyedTerm) compileCached(r *relation.Relation) bool {
	key, keyed := kt.compileKey(r)
	if !keyed {
		return false
	}
	e, hit := compileCache.Peek(key)
	return hit && e.c != nil
}

// EvictRelation releases every bound form cached against the relation —
// compile cache, selection cache, quality and rank vectors alike (the
// sweep runs through the shared boundcache registry). Callers drop or
// replace catalog relations through it so the stale entries stop pinning
// the relation's rows until ordinary capacity eviction; see
// psql.Catalog.Drop. The sweep also covers the current generation's
// memoized Snapshot view, whose bound forms are keyed by the view's own
// identity; superseded generations' views are unreachable by then and
// their entries fall to capacity eviction. The eviction is strictly a
// cache release, never a reclamation: a pinned snapshot still references
// its generation's rows and column arrays directly, so in-flight queries
// keep evaluating their epoch untorn and the arrays retire with the last
// reader. It returns the number of entries released.
func EvictRelation(r *relation.Relation) int {
	if r == nil {
		return 0
	}
	n := boundcache.EvictSource(r)
	if sv, ok := r.PeekSnapshot(); ok && sv != r {
		n += boundcache.EvictSource(sv)
	}
	return n
}

// CompileCacheStats returns the cumulative compile-cache hit and miss
// counts. Gathered binds are neither — see GatheredBinds.
func CompileCacheStats() (hits, misses uint64) {
	return compileCache.Stats()
}

// ResetCompileCache empties the compile cache and zeroes its counters
// (the gathered-bind count included); tests and benchmarks use it to
// measure cold binds.
func ResetCompileCache() {
	compileCache.Reset()
	gatheredBinds.Store(0)
}
