package psql

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestFlatIsOneShard: a flat catalog table runs as its one-shard view, so
// it must be indistinguishable from a table sharded into one shard — the
// same rows in the same order for every pipeline shape, the same EXPLAIN
// below the scan line, the same stream (rows, Progressive, first-row
// Consumed) and the same cache traffic, cold and warm.
func TestFlatIsOneShard(t *testing.T) {
	resetCaches := func() {
		resultcache.Reset()
		rank.ResetScoreCache()
	}
	defer resetCaches()
	cars := workload.Cars(500, 61)
	one, err := relation.ShardRelation(cars, 1, relation.ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	layouts := []struct {
		name string
		cat  Catalog
	}{{"flat", Catalog{"car": cars}}, {"one shard", Catalog{"car": one}}}

	// what one layout answered to one statement, cold then warm.
	type answer struct {
		rows, explain [2]string
		deltas        [2][6]uint64
	}
	run := func(cat Catalog, query string) answer {
		var a answer
		for k := range a.rows {
			text, err := ExplainQuery(query, cat, Options{})
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			lines := strings.SplitN(text, "\n", 2)
			a.explain[k] = lines[1]
			before := cacheCounters()
			rel, err := Run(query, cat, Options{})
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			after := cacheCounters()
			a.rows[k] = renderRel(rel)
			for i := range after {
				a.deltas[k][i] = after[i] - before[i]
			}
		}
		return a
	}
	for _, query := range agreementQueries {
		var got [2]answer
		for l, layout := range layouts {
			resetCaches()
			got[l] = run(layout.cat, query)
		}
		for k, temp := range []string{"cold", "warm"} {
			if got[0].rows[k] != got[1].rows[k] {
				t.Errorf("%s (%s): rows differ:\nflat:\n%s\none shard:\n%s", query, temp, got[0].rows[k], got[1].rows[k])
			}
			if got[0].explain[k] != got[1].explain[k] {
				t.Errorf("%s (%s): EXPLAIN differs below the scan line:\nflat:\n%s\none shard:\n%s", query, temp, got[0].explain[k], got[1].explain[k])
			}
			if got[0].deltas[k] != got[1].deltas[k] {
				t.Errorf("%s (%s): cache-counter deltas (compile lookups, selection h/m, result h/m/carry) differ: flat %v, one shard %v",
					query, temp, got[0].deltas[k], got[1].deltas[k])
			}
		}
		if got[0].rows[0] == "" {
			t.Fatalf("%s: empty result — the comparison would be vacuous", query)
		}
	}

	streams := []struct {
		query       string
		progressive bool
	}{
		{"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)", true},
		{"SELECT oid FROM car WHERE mileage <= 90000 SKYLINE OF price MIN, mileage MIN", true},
		// Keyed terms outside the chain fragment confirm progressively on
		// one shard: it streams as the flat stream does.
		{"SELECT oid FROM car PREFERRING color IN ('red') PRIOR TO LOWEST(price)", true},
		{"SELECT oid FROM car WHERE price <= 60000 PREFERRING HIGHEST(horsepower) PRIOR TO LOWEST(price)", true},
		{"SELECT oid FROM car PREFERRING EXPLICIT(color, ('blue', 'red'), ('gray', 'blue'))", false},
	}
	for _, c := range streams {
		q, err := Parse(c.query)
		if err != nil {
			t.Fatal(err)
		}
		var rows [2]string
		var progressive [2]bool
		var consumed [2]int
		for l, layout := range layouts {
			resetCaches()
			var b strings.Builder
			if _, err := ExecStream(q, layout.cat, Options{}, func(row relation.Row) bool {
				fmt.Fprintf(&b, "%v\n", row)
				return true
			}); err != nil {
				t.Fatalf("%s: %v", c.query, err)
			}
			rows[l] = b.String()
			st := startEngineStream(t, q, layout.cat)
			if _, ok := st.Next(); !ok {
				t.Fatalf("%s: empty stream", c.query)
			}
			progressive[l], consumed[l] = st.Progressive(), st.Consumed()
			st.Close()
		}
		if rows[0] != rows[1] {
			t.Errorf("%s: streamed rows differ:\nflat:\n%s\none shard:\n%s", c.query, rows[0], rows[1])
		}
		if progressive[0] != progressive[1] || consumed[0] != consumed[1] {
			t.Errorf("%s: stream Progressive/first-row Consumed: flat %v/%d, one shard %v/%d",
				c.query, progressive[0], consumed[0], progressive[1], consumed[1])
		}
		if progressive[0] != c.progressive {
			t.Errorf("%s: Progressive() = %v, want %v", c.query, progressive[0], c.progressive)
		}
	}
}

// startEngineStream starts the engine stream ExecStreamCtx runs for a
// stream-shaped query, to read what the psql surface does not report.
func startEngineStream(t *testing.T, q *Query, cat Catalog) *engine.ShardedStream {
	t.Helper()
	s, err := cat.lookup(q.From)
	if err != nil {
		t.Fatal(err)
	}
	p, ranked, err := streamPref(q, buildTerms(q))
	if err != nil || ranked {
		t.Fatalf("%s: not a BMO stream (%v)", q, err)
	}
	var sets engine.ShardSets
	if q.Where != nil {
		sets = make(engine.ShardSets, s.NumShards())
		for i := range sets {
			sets[i] = filter.Compile(q.Where, s.Shard(i)).Indices()
		}
	}
	return engine.EvalStreamShardedCtx(context.Background(), algebra.Simplify(p), s, engine.Auto, sets, engine.Robust{})
}

// TestWarmHitBytesDoNotGrowWithTable: a repeated no-WHERE statement whose
// maxima the result cache serves must not allocate anything of the
// table's size — flat or sharded. Resolving "every row" to a position
// list before the cache probe cost 8 bytes per row per statement.
func TestWarmHitBytesDoNotGrowWithTable(t *testing.T) {
	defer resultcache.Reset()
	const query = "SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)"
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerHit := func(tbl relation.Table) float64 {
		cat := Catalog{"car": tbl}
		for i := 0; i < 3; i++ { // cold, then warm: every shard's maxima cached
			if _, err := ExecCtx(context.Background(), q, cat, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 200
		h0, _, _ := resultcache.Stats()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			if _, err := ExecCtx(context.Background(), q, cat, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		if h1, _, _ := resultcache.Stats(); h1-h0 < runs {
			t.Fatalf("%s: %d result-cache hits in %d warm runs — the statement must be cache-served", tbl.Name(), h1-h0, runs)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	for _, shards := range []int{0, 3} {
		var per [2]float64
		for k, n := range []int{2000, 20000} {
			var tbl relation.Table = workload.Cars(n, 5)
			if shards > 0 {
				s, err := relation.ShardRelation(tbl.(*relation.Relation), shards, relation.ByHash("oid"))
				if err != nil {
					t.Fatal(err)
				}
				tbl = s
			}
			per[k] = bytesPerHit(tbl)
		}
		// The result itself may grow by a few rows with the table; a
		// position list of the table would add 8 bytes a row.
		if per[1] > 1.5*per[0]+2048 {
			t.Errorf("%d shards: a warm hit allocates %.0f B at 2 000 rows, %.0f B at 20 000 — it grows with the table", shards, per[0], per[1])
		}
		t.Logf("%d shards: %.0f B per warm hit at 2 000 rows, %.0f B at 20 000", shards, per[0], per[1])
	}
}
