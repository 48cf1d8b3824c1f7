// Package resultcache is the materialized BMO result cache: finished
// maxima index sets keyed by (relation identity, generation version,
// preference term, candidate-set term), built on the bounded mechanics
// of internal/boundcache. Where the compile caches amortize *binding* —
// score vectors, ordinal codes, selection bitmaps — this cache amortizes
// the *result*: BMO semantics make the answer a pure function of
// (generation, term), so a repeat query over an unchanged generation is
// a map lookup instead of an O(n·|maxima|) scan.
//
// Entries survive writes by incremental maintenance, not invalidation:
// the engine registers a relation.InsertHook that carries every entry of
// the superseded generation forward to the successor — checking only the
// newcomer against the cached maxima (see engine/resultmaint.go for the
// algorithm and its soundness argument). Old-generation entries are
// never touched by the carry: a session pinned to a pre-insert snapshot
// keys its lookups by the pinned version and can never observe a
// maintained successor. Stale versions fall to the boundcache layer's
// stale-first capacity eviction, and dropped relations are swept through
// the shared eviction registry (engine.EvictRelation — the cache is
// registered by construction, like every boundcache.New cache).
package resultcache

import (
	"strings"
	"sync/atomic"

	"repro/internal/boundcache"
	"repro/internal/filter"
	"repro/internal/pref"
)

// Entry is one cached BMO answer, immutable once stored: maintenance
// never edits an entry in place, it builds a successor entry for the
// successor generation. Maxima is shared across readers — callers must
// clone before handing positions to mutating consumers.
type Entry struct {
	// Pref is the preference term the maxima were computed under; the
	// maintenance hook re-evaluates newcomers against it.
	Pref pref.Preference
	// Where is the hard-selection tree scoping the candidate set (nil =
	// every row). A newcomer failing it is outside the candidate set and
	// carries the entry forward unchanged.
	Where filter.Pred
	// Maxima holds the qualifying row positions, ascending.
	Maxima []int
	// Dominated counts the candidate rows known dominated by the cached
	// maxima — rows checked by maintenance plus maxima evicted by later
	// newcomers. It is the per-entry dominance count that makes deletion
	// maintenance tractable (ROADMAP 4c): a deletion only forces a
	// recompute when it removes a maximum, and the count bounds how many
	// dominated rows could resurface.
	Dominated uint64
	// Dims and Coords are the optional chain-product fast path: when the
	// preference flattens to chain dimensions and no stored coordinate is
	// ±Inf, Coords[k] holds Maxima[k]'s maximize-all score vector and the
	// maintenance dominance checks run on raw floats, a NaN coordinate
	// blocking dominance. Nil when unavailable; the interpreted Pref.Less
	// path is always correct without them.
	Dims   []pref.Scorer
	Coords [][]float64
}

// cacheCap bounds the number of cached result sets. Results are small
// (maxima positions, not rows), so the cap is generous relative to the
// compile caches.
const cacheCap = 256

var cache = boundcache.New[*Entry](cacheCap)

// disabled gates the whole cache (default enabled). Benchmarks that must
// measure raw evaluation flip it; the zero value means enabled so init
// order cannot race a hook registration.
var disabled atomic.Bool

// carries counts generation carry-forwards performed by maintenance.
var carries atomic.Uint64

// Enabled reports whether the cache is serving and maintaining.
func Enabled() bool { return !disabled.Load() }

// SetEnabled turns serving and maintenance on or off; disabling does not
// drop existing entries (use Reset for that).
func SetEnabled(on bool) { disabled.Store(!on) }

// TermKey composes the cache term from the preference's canonical key
// and the candidate-set key, length-prefixed so neither component can
// forge the other.
func TermKey(prefTerm, candTerm string) string {
	var b strings.Builder
	b.WriteString("bmo:")
	boundcache.WriteKeyStr(&b, prefTerm)
	boundcache.WriteKeyStr(&b, candTerm)
	return b.String()
}

// Get returns the cached entry for the source at the given generation
// version, counting a hit or miss. A disabled cache always misses
// (without counting).
func Get(src any, version uint64, term string) (*Entry, bool) {
	if disabled.Load() {
		return nil, false
	}
	e, ok := cache.Get(boundcache.Key{Src: src, Version: version, Term: term})
	return e, ok
}

// Put stores an entry; a no-op while the cache is disabled.
func Put(src any, version uint64, term string, e *Entry) {
	if disabled.Load() {
		return
	}
	cache.Put(boundcache.Key{Src: src, Version: version, Term: term}, e)
}

// Peek returns the cached entry without touching the hit/miss counters;
// EXPLAIN's status probe uses it.
func Peek(src any, version uint64, term string) (*Entry, bool) {
	if disabled.Load() {
		return nil, false
	}
	return cache.Peek(boundcache.Key{Src: src, Version: version, Term: term})
}

// AtVersion snapshots every entry of one source at one generation
// version, keyed by term; the maintenance hook iterates it to carry a
// superseded generation's results forward.
func AtVersion(src any, version uint64) map[string]*Entry {
	if disabled.Load() {
		return nil
	}
	return cache.AtVersion(src, version)
}

// NoteCarry counts one maintenance carry-forward.
func NoteCarry() { carries.Add(1) }

// Stats returns the cumulative hit, miss and carry-forward counts.
func Stats() (hits, misses, carried uint64) {
	h, m := cache.Stats()
	return h, m, carries.Load()
}

// Len returns the number of cached result sets.
func Len() int { return cache.Len() }

// Reset empties the cache and zeroes every counter; tests and cold-path
// benchmarks use it.
func Reset() {
	cache.Reset()
	carries.Store(0)
}
