package boundcache

import (
	"strconv"
	"testing"
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
