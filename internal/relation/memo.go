package relation

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/pref"
)

// A generation's memo holds the state derived from exactly its rows that
// outlives a statement: the planner's statistics (Stats), the engine's
// whole-shard BMO maxima and rank's score vectors, each under a term
// string ("stats", a preference's pref.CacheKey, "rank:" plus a scorer's
// key — a key always opens with a constructor name and a parenthesis, so
// the three never collide). Under BMO semantics σ[P](R) is a pure function of R's rows and
// P, so such an entry is valid for one generation and retires with it: a
// dropped table, a displaced shard or a superseded generation frees its
// entries with its rows, with no sweep. A Snapshot view and the live
// relation at one version read one memo. Insert carries the entries that
// can follow an append (Carrier) into its successor's memo and drops the
// rest; a checkpoint's same-version generation takes the memo as it is;
// SortBy and the bulk loads start empty.

// Carrier is a memo entry that stays valid across an Insert once it has
// seen the appended row, such as the engine's BMO maxima.
type Carrier interface {
	// Carry returns the entry of the successor generation, which appends
	// t at position newIdx, and its size in bytes; r still reads the
	// predecessor. It runs inside Insert's writer critical section, so it
	// must be fast and must not mutate r.
	Carry(r *Relation, t pref.Tuple, newIdx int) (next any, bytes int)
}

// memoBytes bounds one memo by the sizes its entries were stored with.
const memoBytes = 8 << 20

// coldShare is the share of a memo's bound (1/coldShare) held open for
// entries no Get has served yet. Without it a memo full of reused entries
// would make each newcomer evict the previous one: two statements arriving
// alternately would never see their own entry again. The share lets a
// newcomer stay long enough to be asked for twice, and at 1/4 it leaves
// three quarters of the bound to what the workload keeps reusing.
const coldShare = 4

// heldCarriers counts the Carrier entries of every live memo: admission
// and eviction adjust it, and a collected memo returns its share.
var heldCarriers atomic.Int64

// HeldCarriers reports the Carrier entries live memos hold — the result
// entries, which are the only carriers.
func HeldCarriers() int { return int(heldCarriers.Load()) }

// memo is a generation's derived state. Every entry sits on one of two
// queues besides the map — cold holds the entries no Get has served yet,
// warm the ones some Get has, each in arrival order — so admission never
// walks the map: an admission past the bound pops the cold queue before
// the warm one, unless the cold entries hold less than their reserved
// share of the bound. A flood of one-shot statements evicts its own
// leftovers, not what the workload keeps coming back to.
type memo struct {
	mu         sync.Mutex
	m          map[string]*list.Element // each holds a *memoEntry
	cold, warm list.List
	bytes      int // sizes of every entry
	coldBytes  int // sizes of the cold queue's entries
	// carriers counts this memo's Carrier entries, created with the first
	// one; a cleanup returns the count to heldCarriers when the memo is
	// collected.
	carriers *atomic.Int64
}

type memoEntry struct {
	key    string
	v      any
	bytes  int
	served bool
}

// get returns the entry under key; serve marks it served, which shields
// it from the one-shot entries a stream of never-repeated statements
// leaves behind.
func (m *memo) get(key string, serve bool) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.m[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*memoEntry)
	if serve && !e.served {
		m.cold.Remove(el)
		m.coldBytes -= e.bytes
		e.served = true
		m.m[key] = m.warm.PushBack(e)
	}
	return e.v, true
}

// put stores v under key unless the key is held already, and returns the
// value held: two goroutines racing one miss derive equal values, and the
// first one stays. An entry larger than the whole bound is not kept.
func (m *memo) put(key string, v any, bytes int) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.m[key]; ok {
		return el.Value.(*memoEntry).v
	}
	m.admit(&memoEntry{key: key, v: v, bytes: bytes})
	return v
}

// admit files a new entry, first evicting — oldest first within each
// queue — until it fits: a cold entry before a warm one, unless the cold
// entries hold less than 1/coldShare of the bound. The caller holds mu.
func (m *memo) admit(e *memoEntry) {
	if e.bytes > memoBytes {
		return
	}
	for m.bytes+e.bytes > memoBytes {
		victim := m.cold.Front()
		if victim == nil || m.coldBytes < memoBytes/coldShare && m.warm.Len() > 0 {
			victim = m.warm.Front()
		}
		m.unlink(victim)
	}
	if m.m == nil {
		m.m = make(map[string]*list.Element)
	}
	m.bytes += e.bytes
	if e.served {
		m.m[e.key] = m.warm.PushBack(e)
	} else {
		m.m[e.key] = m.cold.PushBack(e)
		m.coldBytes += e.bytes
	}
	if _, ok := e.v.(Carrier); ok {
		if m.carriers == nil {
			m.carriers = new(atomic.Int64)
			runtime.AddCleanup(m, func(n *atomic.Int64) { heldCarriers.Add(-n.Load()) }, m.carriers)
		}
		m.carriers.Add(1)
		heldCarriers.Add(1)
	}
}

// unlink drops an entry. The caller holds mu.
func (m *memo) unlink(el *list.Element) {
	e := el.Value.(*memoEntry)
	delete(m.m, e.key)
	m.bytes -= e.bytes
	if e.served {
		m.warm.Remove(el)
	} else {
		m.cold.Remove(el)
		m.coldBytes -= e.bytes
	}
	if _, ok := e.v.(Carrier); ok {
		m.carriers.Add(-1)
		heldCarriers.Add(-1)
	}
}

// carry returns the memo of the successor generation that appends t at
// position newIdx: every Carrier entry carried in queue order, keeping
// its served mark, and nothing else. It returns nil when there is no
// carrier. r still reads the predecessor; the caller holds r.mu.
func (m *memo) carry(r *Relation, t pref.Tuple, newIdx int) *memo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.carriers == nil || m.carriers.Load() == 0 {
		return nil
	}
	next := &memo{}
	for _, q := range [2]*list.List{&m.cold, &m.warm} {
		for el := q.Front(); el != nil; el = el.Next() {
			e := el.Value.(*memoEntry)
			if c, ok := e.v.(Carrier); ok {
				v, bytes := c.Carry(r, t, newIdx)
				next.admit(&memoEntry{key: e.key, v: v, bytes: bytes, served: e.served})
			}
		}
	}
	return next
}

// Memo is a handle on the memo of one generation, taken by
// Relation.Memo: what is stored through it lands on that generation,
// whatever the relation has published since.
type Memo struct{ g *generation }

// Memo returns the memo of r's current generation.
func (r *Relation) Memo() Memo { return Memo{r.cur()} }

// Get returns the entry under key and marks it served.
func (h Memo) Get(key string) (any, bool) {
	if m := h.g.memo.Load(); m != nil {
		return m.get(key, true)
	}
	return nil, false
}

// Peek returns the entry under key without marking it served; EXPLAIN's
// status probes use it.
func (h Memo) Peek(key string) (any, bool) {
	if m := h.g.memo.Load(); m != nil {
		return m.get(key, false)
	}
	return nil, false
}

// Put stores v, accounted at the given size in bytes, under key unless
// the key is held already, and returns the value held. A value that
// implements Carrier follows the relation's Inserts.
func (h Memo) Put(key string, v any, bytes int) any {
	m := h.g.memo.Load()
	if m == nil {
		h.g.memo.CompareAndSwap(nil, &memo{})
		m = h.g.memo.Load()
	}
	return m.put(key, v, bytes)
}

// Len returns the number of entries the memo holds.
func (h Memo) Len() int {
	m := h.g.memo.Load()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
