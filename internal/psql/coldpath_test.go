package psql

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestColdSelectiveStatementAllocBound pins the garbage of a first-seen
// selective statement. Over the served cold_skyline table (anti-correlated
// d=4, n=20000, 2 range shards, WHERE keeping ≈3 %) a statement used to
// allocate 1.9 MB — six full-shard rank transforms plus a full-shard
// bound form per shard, pinned by a compile cache afterwards. With the
// gathered bind everything a statement allocates is proportional to its
// ≈300 candidates per shard plus the WHERE bitmaps, and with the fused
// flat bind (scores and tie keys written into pooled memory, the fold
// reading the records the shards carried, plan reasons left to EXPLAIN)
// ≈23 KB and ≈142 allocations measured (≈78 KB and ≈210 under the race
// detector, whose sync.Pool drops a share of what is put back). The
// bounds sit 10–15 % above those figures (1.5× for the race detector's
// bytes, which vary with what its pools drop): binding the merged maxima
// again instead of folding the carried records costs ≈25 more
// allocations and fails here.
func TestColdSelectiveStatementAllocBound(t *testing.T) {
	maxBytesPerStatement, maxAllocsPerStatement := uint64(26<<10), 157.0
	if raceEnabled {
		maxBytesPerStatement, maxAllocsPerStatement = 120<<10, 232
	}
	flat := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	sharded, err := relation.ShardRelation(flat, 2, relation.ByRange("d1", relation.RangeBounds(flat, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"pts": sharded}
	rng := rand.New(rand.NewSource(14))
	statement := func() {
		cut, a1, a2 := 0.02+0.04*rng.Float64(), 0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()
		var stmt string
		switch rng.Intn(3) {
		case 0:
			stmt = fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING d1 AROUND %.6f AND d2 AROUND %.6f AND LOWEST(d3)", cut, a1, a2)
		case 1:
			stmt = fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING (d1 AROUND %.6f AND LOWEST(d2)) PRIOR TO LOWEST(d3)", cut, a1)
		default:
			stmt = fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND %.6f AND LOWEST(d2))", cut, a1)
		}
		if _, err := Run(stmt, cat, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// The generation's column images and the planner's statistics build
	// once per table version, on the first statement that needs them.
	for i := 0; i < 4; i++ {
		statement()
	}
	const runs = 60
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, statement)
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs the function once more than it counts.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("cold selective statement: %d B/statement, %.0f allocs/statement", bytes, allocs)
	if bytes > maxBytesPerStatement {
		t.Errorf("cold selective statement allocates %d B, bound %d B", bytes, maxBytesPerStatement)
	}
	if allocs > maxAllocsPerStatement {
		t.Errorf("cold selective statement makes %.0f allocations, bound %.0f", allocs, maxAllocsPerStatement)
	}
}

// TestButOnlyGatheredAgreement: the BUT ONLY threshold scan over a small
// surviving candidate set binds its quality vectors over the gathered
// survivors — compiled at any selectivity, nothing cached — and must keep
// exactly the rows the interpreted per-tuple Eval keeps, flat and
// sharded (where the scan fuses into the per-shard pass).
func TestButOnlyGatheredAgreement(t *testing.T) {
	flatCat, shardCat := shardedCatalog(t, 3000, 3, 47)
	soft := "SELECT oid FROM car PREFERRING color = 'red' AND price AROUND 20000 AND HIGHEST(horsepower)"
	but := " BUT ONLY LEVEL(color) <= 1 AND DISTANCE(price) <= 2500"
	for name, cat := range map[string]Catalog{"flat": flatCat, "sharded": shardCat} {
		q, err := Parse(soft + but)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: the BMO result filtered through interpreted Eval.
		maxima, err := Run("SELECT * FROM car"+soft[len("SELECT oid FROM car"):], cat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		byAttr := collectBasePrefs(buildTerms(q))
		var want []int64
		for i := 0; i < maxima.Len(); i++ {
			if q.ButOnly.Eval(byAttr, maxima.Tuple(i)) {
				want = append(want, maxima.Row(i)[0].(int64))
			}
		}
		if len(want) == 0 || len(want) == maxima.Len() {
			t.Fatalf("%s: test premise: the filter must keep some of the %d maxima, kept %d", name, maxima.Len(), len(want))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, err := Run(soft+but, cat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameOIDs(sortedOIDs(t, got), want) {
			t.Fatalf("%s: BUT ONLY over gathered survivors kept %v, interpreted Eval keeps %v", name, sortedOIDs(t, got), want)
		}
	}
}
