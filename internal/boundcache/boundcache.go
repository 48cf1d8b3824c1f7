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
//
// Every entry sits on two intrusive lists besides the map, so admission
// never walks the map: an eviction queue — cold holds the entries no Get
// has served yet, warm the ones some Get has, each in arrival order — and
// the list of its (source, version) group, reachable through groups. A
// Put at capacity drops the other versions' groups of its own source
// whole, then pops the cold queue before the warm one — unless the cold
// queue holds less than its reserved share of the capacity: amortised
// O(1), whatever the capacity.
type Cache[V any] struct {
	cap int

	mu         sync.Mutex
	m          map[Key]*entry[V]
	cold, warm queue[V]
	nCold      int                          // entries on the cold queue
	groups     map[any]map[uint64]*group[V] // source → version → the entries bound at it

	hits, misses atomic.Uint64
}

// entry is one cached bound form plus whether any Get has served it: what
// a workload reuses is what is worth keeping, and an entry no lookup ever
// returned to is the first to go (see Put).
type entry[V any] struct {
	k      Key
	v      V
	reused bool

	prev, next   *entry[V] // eviction queue (cold or warm)
	grp          *group[V]
	gprev, gnext *entry[V] // siblings in grp
}

// group lists the entries of one (source, version).
type group[V any] struct{ head *entry[V] }

// coldShare is the share of a cache's capacity (1/coldShare) held open for
// entries no Get has served yet. Without it a cache full of reused entries
// would make each newcomer evict the previous one: two statements arriving
// alternately would never see their own entry again. The share lets a
// newcomer stay long enough to be asked for twice, and at 1/4 it leaves
// three quarters of the capacity to what the workload keeps reusing.
const coldShare = 4

// queue is an intrusive FIFO over the entries' prev/next links.
type queue[V any] struct{ head, tail *entry[V] }

func (q *queue[V]) push(e *entry[V]) {
	e.prev, e.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = e
	} else {
		q.head = e
	}
	q.tail = e
}

func (q *queue[V]) remove(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next = nil, nil
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
	c := &Cache[V]{cap: capacity}
	c.init()
	registryMu.Lock()
	registry = append(registry, c)
	registryMu.Unlock()
	return c
}

// init (re)creates the empty bookkeeping; the caller holds mu or owns c.
func (c *Cache[V]) init() {
	c.m = make(map[Key]*entry[V])
	c.groups = make(map[any]map[uint64]*group[V])
	c.cold, c.warm, c.nCold = queue[V]{}, queue[V]{}, 0
}

// link files a new entry under its key, at the back of the cold queue and
// at the head of its (source, version) group. The caller holds mu.
func (c *Cache[V]) link(e *entry[V]) {
	c.m[e.k] = e
	c.cold.push(e)
	c.nCold++
	vers := c.groups[e.k.Src]
	if vers == nil {
		vers = make(map[uint64]*group[V], 1)
		c.groups[e.k.Src] = vers
	}
	g := vers[e.k.Version]
	if g == nil {
		g = &group[V]{}
		vers[e.k.Version] = g
	}
	if e.grp, e.gnext = g, g.head; g.head != nil {
		g.head.gprev = e
	}
	g.head = e
}

// unlink removes an entry from the map, its queue and its group; the
// group's last entry takes the group with it. The caller holds mu.
func (c *Cache[V]) unlink(e *entry[V]) {
	delete(c.m, e.k)
	if e.reused {
		c.warm.remove(e)
	} else {
		c.cold.remove(e)
		c.nCold--
	}
	if e.gnext != nil {
		e.gnext.gprev = e.gprev
	}
	if e.gprev != nil {
		e.gprev.gnext = e.gnext
	} else if e.grp.head = e.gnext; e.gnext == nil {
		vers := c.groups[e.k.Src]
		delete(vers, e.k.Version)
		if len(vers) == 0 {
			delete(c.groups, e.k.Src)
		}
	}
	e.grp, e.gprev, e.gnext = nil, nil, nil
}

// dropGroup unlinks every entry of one (source, version) group and
// returns how many there were. The caller holds mu.
func (c *Cache[V]) dropGroup(g *group[V]) int {
	n := 0
	for g.head != nil {
		c.unlink(g.head)
		n++
	}
	return n
}

// EvictSrc removes every entry bound against the given source identity,
// regardless of version or term, and returns the number of entries
// dropped. Callers use it when a source is dropped or replaced, so its
// bound forms stop pinning it until ordinary capacity eviction.
func (c *Cache[V]) EvictSrc(src any) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, g := range c.groups[src] {
		n += c.dropGroup(g)
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
	e, ok := c.m[k]
	var v V
	if ok {
		v = e.v
		if !e.reused {
			c.cold.remove(e)
			c.nCold--
			e.reused = true
			c.warm.push(e)
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Peek returns the cached bound form without touching the hit/miss
// counters or the entry's reuse mark; EXPLAIN-style status probes use it.
func (c *Cache[V]) Peek(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		return e.v, true
	}
	var zero V
	return zero, false
}

// Put stores a bound form. At capacity it evicts entries of the same
// source with an outdated version first (they can never be read again),
// then — one at a time until there is room — an entry no Get ever served
// before any that one did, oldest first within each class: a flood of
// distinct one-shot statements evicts its own leftovers, not the bound
// forms and results the workload keeps coming back to. While fewer than
// cap/coldShare entries are unserved, the oldest served entry goes
// instead, so a newcomer always has room to be asked for again. Neither
// step walks the map (see Cache), so admission costs the same at any
// capacity.
// Overwriting an existing key never evicts: it cannot grow the map
// (duplicate Puts are the normal outcome of two goroutines racing the
// same miss).
func (c *Cache[V]) Put(k Key, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, exists := c.m[k]; exists {
		e.v = v
		return
	}
	if len(c.m) >= c.cap {
		for ver, g := range c.groups[k.Src] {
			if ver != k.Version {
				c.dropGroup(g)
			}
		}
		for len(c.m) >= c.cap {
			victim := c.cold.head
			if victim == nil || c.nCold < max(1, c.cap/coldShare) && c.warm.head != nil {
				victim = c.warm.head
			}
			c.unlink(victim)
		}
	}
	c.link(&entry[V]{k: k, v: v})
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
	g := c.groups[src][version]
	if g == nil {
		return nil
	}
	out := make(map[string]V)
	for e := g.head; e != nil; e = e.gnext {
		out[e.k.Term] = e.v
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
	c.init()
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
