package resultcache

import (
	"fmt"
	"testing"
)

// fresh isolates a test from prior entries and counters.
func fresh(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
}

// TestGetPutPeekCounters pins the counter semantics: Get counts hits and
// misses, Peek counts nothing.
func TestGetPutPeekCounters(t *testing.T) {
	fresh(t)
	src := new(int)
	term := "p"
	if _, ok := Get(src, 1, term); ok {
		t.Fatal("empty cache must miss")
	}
	Put(src, 1, term, &Entry{Maxima: []int{0, 2}})
	if e, ok := Get(src, 1, term); !ok || len(e.Maxima) != 2 {
		t.Fatalf("stored entry must be served, ok=%v", ok)
	}
	if _, ok := Get(src, 2, term); ok {
		t.Fatal("a different generation version must miss")
	}
	if _, ok := Peek(src, 1, term); !ok {
		t.Fatal("Peek must see the entry")
	}
	if h, m, _ := Stats(); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1 and 2 (Peek counts nothing)", h, m)
	}
	if Len() != 1 {
		t.Fatalf("Len=%d, want 1", Len())
	}
}

// TestAtVersion pins the maintenance iteration surface: only the
// requested (source, version) pair's entries, keyed by term.
func TestAtVersion(t *testing.T) {
	fresh(t)
	a, b := new(int), new(int)
	Put(a, 1, "t1", &Entry{Maxima: []int{1}})
	Put(a, 1, "t2", &Entry{Maxima: []int{2}})
	Put(a, 2, "t1", &Entry{Maxima: []int{3}})
	Put(b, 1, "t1", &Entry{Maxima: []int{4}})
	got := AtVersion(a, 1)
	if len(got) != 2 || got["t1"] == nil || got["t2"] == nil {
		t.Fatalf("AtVersion(a, 1) = %v, want terms t1 and t2", got)
	}
	if got["t1"].Maxima[0] != 1 {
		t.Fatalf("AtVersion must return version 1's entry, got maxima %v", got["t1"].Maxima)
	}
	if len(AtVersion(a, 3)) != 0 {
		t.Fatal("an absent version must return no entries")
	}
}

// TestCapacityEviction pins that the cache stays bounded under distinct
// terms and that stale generations fall out first.
func TestCapacityEviction(t *testing.T) {
	fresh(t)
	src := new(int)
	for i := 0; i < 4*cacheCap; i++ {
		Put(src, 1, fmt.Sprintf("t%d", i), &Entry{Maxima: []int{i}})
	}
	if Len() > cacheCap {
		t.Fatalf("Len=%d exceeds cap %d", Len(), cacheCap)
	}
	// A newer generation's entry must displace stale-version entries.
	Put(src, 9, "fresh", &Entry{Maxima: []int{1}})
	if _, ok := Get(src, 9, "fresh"); !ok {
		t.Fatal("the newest generation's entry must survive insertion at capacity")
	}
}

// TestReset zeroes entries and counters.
func TestReset(t *testing.T) {
	fresh(t)
	src := new(int)
	Put(src, 1, "t", &Entry{})
	Get(src, 1, "t")
	NoteCarry()
	Reset()
	if Len() != 0 {
		t.Fatalf("Len=%d after Reset", Len())
	}
	if h, m, c := Stats(); h != 0 || m != 0 || c != 0 {
		t.Fatalf("Stats after Reset = %d/%d/%d", h, m, c)
	}
}
