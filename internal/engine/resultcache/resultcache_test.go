package resultcache_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// fresh zeroes the counters for a test and waits until the memos earlier
// tests dropped have returned their entries, so Len moves only with what
// the test itself caches.
func fresh(t *testing.T) {
	resultcache.Reset()
	t.Cleanup(resultcache.Reset)
	for prev, settled := -1, 0; settled < 3; {
		runtime.GC()
		time.Sleep(time.Millisecond) // cleanups run on their own goroutine
		if n := resultcache.Len(); n == prev {
			settled++
		} else {
			prev, settled = n, 0
		}
	}
}

// line builds n rows on the anti-diagonal d1 + d2 = n: under LOWEST on
// both columns every row is a maximum.
func line(n int) *relation.Relation {
	r := relation.New("L", relation.MustSchema(
		relation.Column{Name: "d1", Type: relation.Float},
		relation.Column{Name: "d2", Type: relation.Float},
	))
	for i := 0; i < n; i++ {
		r.MustInsert(relation.Row{float64(i), float64(n - i)})
	}
	return r
}

func eval(t *testing.T, p pref.Preference, r *relation.Relation) []int {
	t.Helper()
	out, err := engine.EvalIndicesCtxKeyed(context.Background(), p, r, engine.Auto, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGetPutPeekCounters pins the counter semantics: a keyed evaluation
// counts a miss and stores, its repeat counts a hit, EXPLAIN's probe
// counts nothing, and Len counts the stored entry.
func TestGetPutPeekCounters(t *testing.T) {
	fresh(t)
	r := line(20)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	n0 := resultcache.Len()
	want := eval(t, p, r)
	if h, m, _ := resultcache.Stats(); h != 0 || m != 1 {
		t.Fatalf("cold evaluation: hits=%d misses=%d, want 0 and 1", h, m)
	}
	if got := eval(t, p, r); !slices.Equal(got, want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	if st := engine.ResultCacheState(p, r, nil); st != "hit" {
		t.Fatalf("EXPLAIN's probe saw %q, want hit", st)
	}
	if h, m, _ := resultcache.Stats(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1 and 1 (the probe counts nothing)", h, m)
	}
	if n := resultcache.Len() - n0; n != 1 {
		t.Fatalf("Len grew by %d, want 1", n)
	}
	runtime.KeepAlive(r)
}

// TestAtVersion pins that an entry answers at exactly the generation it
// was stored on: a snapshot pinned before an Insert keeps its version's
// entry, the successor answers from the carried one, and a generation
// SortBy publishes starts cold.
func TestAtVersion(t *testing.T) {
	fresh(t)
	r := line(20)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	before := eval(t, p, r)
	snap := r.Snapshot()
	r.MustInsert(relation.Row{-1.0, -1.0}) // dominates every row
	if _, _, c := resultcache.Stats(); c != 1 {
		t.Fatalf("the Insert carried %d entries, want 1", c)
	}
	if got := eval(t, p, snap); !slices.Equal(got, before) {
		t.Fatalf("the pinned snapshot answered %v, want its version's %v", got, before)
	}
	if got := eval(t, p, r); !slices.Equal(got, []int{20}) {
		t.Fatalf("the successor answered %v, want the newcomer [20]", got)
	}
	if h, m, _ := resultcache.Stats(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want both versions served", h, m)
	}
	r.SortBy(func(a, b pref.Tuple) bool { return false })
	if st := engine.ResultCacheState(p, r, nil); st != "cold" {
		t.Fatalf("SortBy's generation reads %q, want cold", st)
	}
}

// TestCapacityEviction pins that one generation's entries stay bounded
// under a flood of distinct terms, and that the newest term's entry
// survives admission into a full memo.
func TestCapacityEviction(t *testing.T) {
	fresh(t)
	// The anti-diagonal plus eight constant columns: every term below is a
	// chain product under which all 500 rows are maxima, so each entry
	// keeps 500 positions and ten coordinates per position (≈ 56 kB).
	const consts, rows = 8, 500
	cols := []relation.Column{{Name: "d1", Type: relation.Float}, {Name: "d2", Type: relation.Float}}
	for j := 0; j < consts; j++ {
		cols = append(cols, relation.Column{Name: fmt.Sprintf("c%d", j), Type: relation.Float})
	}
	r := relation.New("W", relation.MustSchema(cols...))
	for i := 0; i < rows; i++ {
		row := make(relation.Row, len(cols))
		row[0], row[1] = float64(i), float64(rows-i)
		for j := 2; j < len(row); j++ {
			row[j] = 0.0
		}
		r.MustInsert(row)
	}
	const terms = 1 << consts
	var p pref.Preference
	for i := 0; i < terms; i++ {
		leaves := []pref.Preference{pref.LOWEST("d1"), pref.LOWEST("d2")}
		for j := 0; j < consts; j++ {
			if c := fmt.Sprintf("c%d", j); i>>j&1 == 1 {
				leaves = append(leaves, pref.HIGHEST(c))
			} else {
				leaves = append(leaves, pref.LOWEST(c))
			}
		}
		p = pref.ParetoAll(leaves...)
		if got := eval(t, p, r); len(got) != rows {
			t.Fatalf("test premise: %d maxima, want all %d rows", len(got), rows)
		}
	}
	if n := r.Memo().Len(); n >= terms {
		t.Fatalf("the memo holds %d entries of %d terms: it is not bounded", n, terms)
	}
	if st := engine.ResultCacheState(p, r, nil); st != "hit" {
		t.Fatalf("the newest term's entry reads %q, want hit", st)
	}
}

// TestReset zeroes the counters; the entries live on their generations,
// so Len keeps counting them.
func TestReset(t *testing.T) {
	fresh(t)
	r := line(20)
	p := pref.Pareto(pref.LOWEST("d1"), pref.LOWEST("d2"))
	eval(t, p, r)
	eval(t, p, r)
	resultcache.NoteCarry()
	n := resultcache.Len()
	resultcache.Reset()
	if h, m, c := resultcache.Stats(); h != 0 || m != 0 || c != 0 {
		t.Fatalf("Stats after Reset = %d/%d/%d", h, m, c)
	}
	if resultcache.Len() != n {
		t.Fatalf("Len=%d after Reset, want the %d entries still held", resultcache.Len(), n)
	}
	runtime.KeepAlive(r)
}
