// Package boundcache is the bounded, version-keyed cache shared by the
// compile layers: the engine's preference compile cache and the filter
// layer's selection cache both map (source identity, source mutation
// version, canonical term key) to an immutable bound form. The policy —
// what is safe to key and what to store — stays with the callers; this
// package owns the mechanics: bounded size, stale-version-first then
// never-reused-first eviction, hit/miss accounting, thread safety.
package boundcache

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Key identifies one bound form: the source it was bound against (an
// identity, typically a *relation.Relation — it must be comparable), the
// source's mutation version at bind time, and a canonical rendering of
// the compiled term. Callers must only use term keys that fully determine
// the term's semantics.
type Key struct {
	Src     any
	Version uint64
	Term    string
}

// Cache is a bounded map from Key to bound forms of type V. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[V any] struct {
	cap int

	mu sync.Mutex
	m  map[Key]slot[V]

	hits, misses atomic.Uint64
}

// slot is one cached bound form plus whether any Get has served it: what
// a workload reuses is what is worth keeping, and an entry no lookup ever
// returned to is the first to go (see Put).
type slot[V any] struct {
	v      V
	reused bool
}

// evictor is the type-erased view of a Cache the package-level eviction
// registry holds: EvictSource must sweep caches of every value type.
type evictor interface {
	EvictSrc(src any) int
}

// registry tracks every cache created by New so EvictSource can sweep all
// bound forms of a dropped source in one call. Caches are package-level
// singletons in practice, so the registry only ever grows by a handful of
// entries per process.
var (
	registryMu sync.Mutex
	registry   []evictor
)

// New returns an empty cache bounded to capacity entries and registers it
// for package-level eviction sweeps (see EvictSource).
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{cap: capacity, m: make(map[Key]slot[V])}
	registryMu.Lock()
	registry = append(registry, c)
	registryMu.Unlock()
	return c
}

// EvictSrc removes every entry bound against the given source identity,
// regardless of version or term, and returns the number of entries
// dropped. Callers use it when a source is dropped or replaced, so its
// bound forms stop pinning it until ordinary capacity eviction.
func (c *Cache[V]) EvictSrc(src any) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.m {
		if k.Src == src {
			delete(c.m, k)
			n++
		}
	}
	return n
}

// EvictSource sweeps the entries of one source identity out of every cache
// created by New — the compile, selection and quality caches all key their
// bound forms by source, so one call releases everything a dropped catalog
// relation pinned. It returns the total number of entries dropped.
func EvictSource(src any) int {
	registryMu.Lock()
	caches := registry
	registryMu.Unlock()
	n := 0
	for _, c := range caches {
		n += c.EvictSrc(src)
	}
	return n
}

// Get returns the cached bound form for the key and counts a hit or miss.
// A hit marks the entry reused, which shields it from the one-shot
// entries a stream of never-repeated statements leaves behind.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	s, ok := c.m[k]
	if ok && !s.reused {
		s.reused = true
		c.m[k] = s
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return s.v, ok
}

// Peek returns the cached bound form without touching the hit/miss
// counters or the entry's reuse mark; EXPLAIN-style status probes use it.
func (c *Cache[V]) Peek(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[k]
	return s.v, ok
}

// Put stores a bound form. At capacity it evicts entries of the same
// source with an outdated version first (they can never be read again),
// then — one at a time until there is room — an entry no Get ever served
// before any that one did: a flood of distinct one-shot statements evicts
// its own leftovers, not the bound forms and results the workload keeps
// coming back to. Overwriting an existing key never evicts: it cannot
// grow the map (duplicate Puts are the normal outcome of two goroutines
// racing the same miss).
func (c *Cache[V]) Put(k Key, v V) {
	c.mu.Lock()
	old, exists := c.m[k]
	if !exists && len(c.m) >= c.cap {
		for o := range c.m {
			if o.Src == k.Src && o.Version != k.Version {
				delete(c.m, o)
			}
		}
		for len(c.m) >= c.cap {
			var victim Key
			for o, s := range c.m {
				victim = o
				if !s.reused {
					break
				}
			}
			delete(c.m, victim)
		}
	}
	c.m[k] = slot[V]{v: v, reused: old.reused}
	c.mu.Unlock()
}

// AtVersion returns a snapshot of every entry bound against the given
// source identity at exactly the given version, keyed by term. The
// result cache's incremental-maintenance hook iterates it to carry each
// cached BMO result forward across a generation step. The returned map
// is the caller's; values are shared (bound forms are immutable by
// contract).
func (c *Cache[V]) AtVersion(src any, version uint64) map[string]V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out map[string]V
	for k, s := range c.m {
		if k.Src == src && k.Version == version {
			if out == nil {
				out = make(map[string]V)
			}
			out[k.Term] = s.v
		}
	}
	return out
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Reset empties the cache and zeroes the counters.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	c.m = make(map[Key]slot[V])
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// WriteKeyStr appends a length-prefixed string to b: the canonical
// encoding the cache layers build collision-safe term keys from —
// components containing delimiter bytes cannot forge another key.
func WriteKeyStr(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}
