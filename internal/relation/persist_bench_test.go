package relation_test

// The steady-state persistence benchmarks: the same compiled BMO query
// over the same rows, once against the in-memory relation and once
// against its paged twin (segments + buffer pool), plus the write-side
// costs (WAL append, checkpoint). The mem-vs-paged pair is the
// acceptance measurement for the disk tier — warm paged evaluation must
// stay within 1.5x of the in-memory hot path, because the columnar
// accelerators serve reads from the same flat float/mask slices in both
// cases (mmap'd in the paged one).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/relation/store"
	"repro/internal/workload"
)

// pagedTwin imports rel into a fresh store and returns the paged
// relation serving the same rows from segment files.
func pagedTwin(b *testing.B, rel *relation.Relation, pool int64) (*relation.Store, *relation.Relation) {
	b.Helper()
	st, err := relation.OpenStore(b.TempDir(), relation.StoreOptions{PoolBytes: pool})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := st.ImportTable(rel)
	if err != nil {
		st.Close()
		b.Fatal(err)
	}
	return st, tbl.(*relation.Relation)
}

// BenchmarkPagedBMO is the headline mem-vs-paged pair: a compiled
// Pareto skyline (price LOWEST x horsepower HIGHEST x mileage LOWEST)
// over the synthetic car workload, warm (first run outside the timer
// faults the pages in). The pool is sized
// above the table, so the paged leg measures the steady state a hot
// working set sees, not eviction churn.
func BenchmarkPagedBMO(b *testing.B) {
	const n = 20000
	mem := workload.Cars(n, 7)
	mem.Columnarize()
	p := pref.ParetoAll(
		pref.LOWEST("price"), pref.HIGHEST("horsepower"), pref.LOWEST("mileage"))

	st, paged := pagedTwin(b, mem, 64<<20)
	defer st.Close()

	want := engine.BMOIndices(p, mem, engine.Auto)
	if got := engine.BMOIndices(p, paged, engine.Auto); len(got) != len(want) {
		b.Fatalf("paged maxima %d, in-memory %d", len(got), len(want))
	}

	b.Run("mem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, mem, engine.Auto)
		}
	})
	b.Run("paged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			engine.BMOIndices(p, paged, engine.Auto)
		}
	})
}

// BenchmarkPersistInsert measures the write path: one row through the
// WAL (append + CRC frame, no fsync) into the live generation.
func BenchmarkPersistInsert(b *testing.B) {
	st, err := relation.OpenStore(b.TempDir(), relation.StoreOptions{PoolBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seed := workload.Cars(1, 1)
	tbl, err := st.ImportTable(seed)
	if err != nil {
		b.Fatal(err)
	}
	rel := tbl.(*relation.Relation)
	row := seed.Snapshot().Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rel.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistCheckpoint measures folding a 256-row WAL tail into a
// fresh epoch: segment rewrite, meta swap, stale-file cleanup.
func BenchmarkPersistCheckpoint(b *testing.B) {
	st, err := relation.OpenStore(b.TempDir(), relation.StoreOptions{PoolBytes: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seed := workload.Cars(2000, 3)
	tbl, err := st.ImportTable(seed)
	if err != nil {
		b.Fatal(err)
	}
	rel := tbl.(*relation.Relation)
	row := seed.Snapshot().Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			if err := rel.Insert(row); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := st.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// pickSink keeps BenchmarkPagedPick's result live.
var pickSink *relation.Relation

// BenchmarkPagedPick is the row-store read a BMO statement ends in: Pick
// of k result rows, every column, from a paged table of 20 000 cars in
// 4 KiB pages, k ∈ {1, 37, 300}. pool=1/8 gives the buffer pool an
// eighth of the row pages' bytes (the served durable workload's budget:
// a statement's reads mostly miss), pool=all holds every page (each read
// a hit, so the row decode alone). Each iteration picks one of 64 fixed
// random index sets. B/op and allocs/op are what a statement's result
// rows leave for the collector.
func BenchmarkPagedPick(b *testing.B) {
	const n = 20000
	mem := workload.Cars(n, 11)
	var rowBytes int64
	for _, row := range mem.Rows() {
		buf, err := store.AppendRow(nil, row)
		if err != nil {
			b.Fatal(err)
		}
		rowBytes += int64(len(buf))
	}
	for _, pool := range []struct {
		name  string
		bytes int64
	}{{"pool=1/8", rowBytes / 8}, {"pool=all", 2 * rowBytes}} {
		st, err := relation.OpenStore(b.TempDir(), relation.StoreOptions{PoolBytes: pool.bytes, PageBytes: 4 << 10})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := st.ImportTable(mem)
		if err != nil {
			st.Close()
			b.Fatal(err)
		}
		paged := tbl.(*relation.Relation)
		for _, k := range []int{1, 37, 300} {
			rng := rand.New(rand.NewSource(int64(k)))
			sets := make([][]int, 64)
			for s := range sets {
				sets[s] = rng.Perm(n)[:k]
			}
			b.Run(fmt.Sprintf("%s/k=%d", pool.name, k), func(b *testing.B) {
				for _, idx := range sets {
					paged.Pick(idx) // fill the pool
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pickSink = paged.Pick(sets[i%len(sets)])
				}
			})
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
