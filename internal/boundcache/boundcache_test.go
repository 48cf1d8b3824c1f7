package boundcache

import (
	"strconv"
	"testing"
	"time"
)

type src struct{ name string }

func TestEvictSrcRemovesOnlyThatSource(t *testing.T) {
	a, b := &src{"a"}, &src{"b"}
	c := New[int](8)
	c.Put(Key{Src: a, Version: 1, Term: "t1"}, 1)
	c.Put(Key{Src: a, Version: 2, Term: "t1"}, 2)
	c.Put(Key{Src: a, Version: 1, Term: "t2"}, 3)
	c.Put(Key{Src: b, Version: 1, Term: "t1"}, 4)
	if n := c.EvictSrc(a); n != 3 {
		t.Fatalf("evicted %d entries, want 3", n)
	}
	if _, hit := c.Peek(Key{Src: a, Version: 1, Term: "t1"}); hit {
		t.Fatal("entry of the evicted source must be gone")
	}
	if _, hit := c.Peek(Key{Src: b, Version: 1, Term: "t1"}); !hit {
		t.Fatal("other sources' entries must survive")
	}
	if n := c.EvictSrc(a); n != 0 {
		t.Fatalf("re-eviction must be a no-op, got %d", n)
	}
}

func TestEvictSourceSweepsEveryRegisteredCache(t *testing.T) {
	a := &src{"a"}
	c1 := New[int](4)
	c2 := New[string](4)
	c1.Put(Key{Src: a, Version: 1, Term: "x"}, 1)
	c2.Put(Key{Src: a, Version: 1, Term: "y"}, "s")
	c2.Put(Key{Src: &src{"b"}, Version: 1, Term: "y"}, "keep")
	if n := EvictSource(a); n < 2 {
		t.Fatalf("sweep evicted %d entries, want at least the 2 just added", n)
	}
	if c1.Len() != 0 {
		t.Fatal("c1 must be empty after the sweep")
	}
	if c2.Len() != 1 {
		t.Fatalf("c2 must keep the other source's entry, has %d", c2.Len())
	}
}

// TestReusedEntrySurvivesOneShotFlood: an entry some Get has served must
// outlive any number of never-read entries pushed through a full cache —
// one-shot statements evict each other's leftovers, not the hot form.
func TestReusedEntrySurvivesOneShotFlood(t *testing.T) {
	c := New[int](8)
	owner := &src{"flood"}
	hot := Key{Src: owner, Version: 1, Term: "hot"}
	c.Put(hot, 42)
	if _, ok := c.Get(hot); !ok {
		t.Fatal("hot entry missing right after Put")
	}
	for i := 0; i < 1000; i++ {
		c.Put(Key{Src: owner, Version: 1, Term: "one-shot#" + strconv.Itoa(i)}, i)
		if c.Len() > 8 {
			t.Fatalf("cache grew to %d entries past its cap", c.Len())
		}
	}
	if v, ok := c.Peek(hot); !ok || v != 42 {
		t.Fatal("a reused entry was evicted by never-read ones")
	}
	// With every entry reused the cache still makes room.
	small := New[int](2)
	for i := 0; i < 2; i++ {
		k := Key{Src: owner, Version: 1, Term: strconv.Itoa(i)}
		small.Put(k, i)
		small.Get(k)
	}
	small.Put(Key{Src: owner, Version: 1, Term: "new"}, 9)
	if _, ok := small.Peek(Key{Src: owner, Version: 1, Term: "new"}); !ok || small.Len() != 2 {
		t.Fatalf("full cache of reused entries must still admit a newcomer (len %d)", small.Len())
	}
}

// TestAlternatingKeysInFullWarmCache: a cache full of entries that have
// all been hit must still serve two keys that arrive alternately. With
// never-reused-first admission alone each newcomer evicted the previous
// one — 0 hits in 20 lookups — which is what a served process reaches when
// a superseded snapshot's reused entries fill a cache keyed on the
// per-generation snapshot (the same-source stale-version rule never drops
// them).
func TestAlternatingKeysInFullWarmCache(t *testing.T) {
	c := New[int](8)
	stale := &src{"superseded snapshot"}
	for i := 0; i < 8; i++ {
		k := Key{Src: stale, Version: 1, Term: "reused#" + strconv.Itoa(i)}
		c.Put(k, i)
		c.Get(k)
	}
	live := &src{"current snapshot"}
	a, b := Key{Src: live, Version: 1, Term: "A"}, Key{Src: live, Version: 1, Term: "B"}
	hits := 0
	for i := 0; i < 20; i++ {
		k := a
		if i%2 == 1 {
			k = b
		}
		if _, ok := c.Get(k); ok {
			hits++
		} else {
			c.Put(k, i)
		}
		if c.Len() > 8 {
			t.Fatalf("cache grew to %d entries past its cap", c.Len())
		}
	}
	if hits != 18 {
		t.Fatalf("alternating keys in a full warm cache: %d hits of 20 lookups, want 18 (each key misses once)", hits)
	}
}

// TestAdmissionOrderUnderFlood pins the whole eviction order at once: a
// full cache holding reused entries, never-read entries and stale
// versions of the flooding source takes a flood of one-shot Puts. The
// stale versions go first (and only when room is needed), every reused
// entry outlives the flood, the never-read ones leave oldest first, and
// the cache never exceeds its capacity.
func TestAdmissionOrderUnderFlood(t *testing.T) {
	const capacity = 32
	c := New[int](capacity)
	owner, other := &src{"owner"}, &src{"other"}
	var hot []Key
	for i := 0; i < 8; i++ {
		s := owner
		if i%2 == 1 {
			s = other
		}
		k := Key{Src: s, Version: 2, Term: "hot#" + strconv.Itoa(i)}
		c.Put(k, i)
		c.Get(k)
		hot = append(hot, k)
	}
	var stale []Key
	for i := 0; i < 8; i++ {
		k := Key{Src: owner, Version: 1, Term: "stale#" + strconv.Itoa(i)}
		c.Put(k, i)
		if i < 4 {
			c.Get(k) // a reused entry of a dead version is still dead
		}
		stale = append(stale, k)
	}
	var cold []Key
	for i := 0; i < capacity-16; i++ {
		k := Key{Src: other, Version: 2, Term: "cold#" + strconv.Itoa(i)}
		c.Put(k, i)
		cold = append(cold, k)
	}
	if c.Len() != capacity {
		t.Fatalf("setup: len %d, want %d", c.Len(), capacity)
	}
	has := func(k Key) bool { _, ok := c.Peek(k); return ok }

	// The first Put at capacity sweeps the owner's stale version whole —
	// and nothing else, although never-read entries are older.
	c.Put(Key{Src: owner, Version: 2, Term: "flood#0"}, 0)
	for _, k := range stale {
		if has(k) {
			t.Fatalf("stale entry %v survived a same-source Put at capacity", k.Term)
		}
	}
	for _, k := range cold {
		if !has(k) {
			t.Fatalf("never-read entry %v evicted while stale versions made room", k.Term)
		}
	}
	// Fill the room the sweep made, then keep flooding: never-read entries
	// leave in arrival order, reused ones stay.
	n := 1
	for ; c.Len() < capacity; n++ {
		c.Put(Key{Src: owner, Version: 2, Term: "flood#" + strconv.Itoa(n)}, n)
	}
	for i := range cold {
		c.Put(Key{Src: owner, Version: 2, Term: "flood#" + strconv.Itoa(n)}, n)
		n++
		if has(cold[i]) || (i+1 < len(cold) && !has(cold[i+1])) {
			t.Fatalf("never-read entries must leave oldest first (at cold#%d)", i)
		}
	}
	for i := 0; i < 10*capacity; i++ {
		c.Put(Key{Src: owner, Version: 2, Term: "flood#" + strconv.Itoa(n)}, n)
		n++
		if c.Len() > capacity {
			t.Fatalf("cache grew to %d past its capacity %d", c.Len(), capacity)
		}
	}
	for _, k := range hot {
		if !has(k) {
			t.Fatalf("reused entry %v did not survive the one-shot flood", k.Term)
		}
	}
	// Overwriting never evicts and keeps the reuse mark.
	c.Put(hot[0], 99)
	if v, _ := c.Peek(hot[0]); v != 99 || c.Len() != capacity {
		t.Fatalf("overwrite: value %d len %d", v, c.Len())
	}
}

// TestGroupBookkeepingStaysConsistent drives random Put/Get/EvictSrc
// traffic and checks the version groups against the map after every
// step through the two readers that walk them (AtVersion, EvictSrc).
func TestGroupBookkeepingStaysConsistent(t *testing.T) {
	c := New[int](16)
	srcs := []*src{{"a"}, {"b"}, {"c"}}
	model := map[Key]int{}
	seed := uint32(1)
	rnd := func(n int) int { seed = seed*1664525 + 1013904223; return int(seed>>8) % n }
	for step := 0; step < 5000; step++ {
		k := Key{Src: srcs[rnd(3)], Version: uint64(rnd(3)), Term: strconv.Itoa(rnd(12))}
		switch rnd(10) {
		case 0:
			n := c.EvictSrc(k.Src)
			for mk := range model {
				if mk.Src == k.Src {
					delete(model, mk)
					n--
				}
			}
			if n != 0 {
				t.Fatalf("step %d: EvictSrc count off by %d", step, n)
			}
		case 1, 2, 3:
			c.Get(k)
		default:
			c.Put(k, step)
			model[k] = step
		}
		// The model only learns of capacity evictions by asking.
		for mk := range model {
			if _, ok := c.Peek(mk); !ok {
				delete(model, mk)
			}
		}
		if c.Len() != len(model) || c.Len() > 16 {
			t.Fatalf("step %d: len %d, model %d", step, c.Len(), len(model))
		}
		got := c.AtVersion(k.Src, k.Version)
		want := 0
		for mk, mv := range model {
			if mk.Src == k.Src && mk.Version == k.Version {
				want++
				if got[mk.Term] != mv {
					t.Fatalf("step %d: AtVersion[%s] = %d, want %d", step, mk.Term, got[mk.Term], mv)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("step %d: AtVersion has %d entries, want %d", step, len(got), want)
		}
	}
}

// BenchmarkPutAtCapacity prices one admission into a full cache of
// never-reused entries — the steady state of a one-shot statement flood.
// The cost must not depend on the capacity: TestPutAtCapacityIsFlat holds
// cap=128 and cap=4096 within 2× of each other.
func BenchmarkPutAtCapacity(b *testing.B) {
	for _, capacity := range []int{128, 4096} {
		b.Run("cap="+strconv.Itoa(capacity), func(b *testing.B) { benchPutAtCapacity(b, capacity) })
	}
}

func benchPutAtCapacity(b *testing.B, capacity int) {
	put := fullCache(capacity, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(i)
	}
}

// fullCache returns the i-th one-shot admission into a cache filled to
// capacity with never-reused entries; the keys of n admissions are built
// up front so only Put is on the clock.
func fullCache(capacity, n int) (put func(i int)) {
	c := New[int](capacity)
	owner := &src{"bench"}
	terms := make([]string, capacity+n)
	for i := range terms {
		terms[i] = "t" + strconv.Itoa(i)
	}
	for i := 0; i < capacity; i++ {
		c.Put(Key{Src: owner, Version: 1, Term: terms[i]}, i)
	}
	return func(i int) { c.Put(Key{Src: owner, Version: 1, Term: terms[capacity+i]}, i) }
}

func TestPutAtCapacityIsFlat(t *testing.T) {
	const puts = 20000
	perOp := func(capacity int) time.Duration {
		best := time.Duration(0)
		for try := 0; try < 5; try++ {
			put := fullCache(capacity, puts)
			start := time.Now()
			for i := 0; i < puts; i++ {
				put(i)
			}
			if d := time.Since(start) / puts; best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	small, large := perOp(128), perOp(4096)
	// +100 ns: a sub-microsecond operation jitters by a cache miss.
	if large > 2*small+100*time.Nanosecond {
		t.Fatalf("Put at capacity: %v at cap=128, %v at cap=4096 — admission walks the cache", small, large)
	}
}
