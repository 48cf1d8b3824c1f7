package relation

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/relation/store"
)

func persistSchema() *Schema {
	return MustSchema(
		Column{Name: "name", Type: String},
		Column{Name: "price", Type: Int},
		Column{Name: "power", Type: Float},
		Column{Name: "fast", Type: Bool},
		Column{Name: "built", Type: Time},
	)
}

func persistRow(i int) Row {
	var name pref.Value
	if i%7 != 0 {
		name = fmt.Sprintf("car-%d", i%23)
	}
	return Row{
		name,
		int64(20000 + i%500*37),
		float64(90 + i%311),
		i%2 == 0,
		time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
	}
}

// encodeRows renders rows through the store codec, the byte-identical
// comparison the crash-recovery contract is stated in.
func encodeRows(t *testing.T, rows []Row) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, r := range rows {
		if buf, err = store.AppendRow(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// reencode normalizes a row through the codec (ints widen to int64,
// times become UTC instants) so expected rows compare equal to
// recovered ones.
func reencode(t *testing.T, row Row) Row {
	t.Helper()
	buf, err := store.AppendRow(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	out, rest, err := store.ReadRow(buf, len(row))
	if err != nil || len(rest) != 0 {
		t.Fatalf("reencode: %v", err)
	}
	return Row(out)
}

func TestPersistRoundTripFlat(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{PoolBytes: 1 << 20, PageBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.CreateTable("car", persistSchema())
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	want := make([]Row, n)
	for i := 0; i < n; i++ {
		row := persistRow(i)
		if err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
		want[i] = reencode(t, row)
	}
	wantVersion := r.Version()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, StoreOptions{PoolBytes: 1 << 20, PageBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	tb, ok := st2.Table("car")
	if !ok {
		t.Fatal("reopened store lost the table")
	}
	r2 := tb.(*Relation)
	if r2.Len() != n {
		t.Fatalf("recovered %d rows, want %d", r2.Len(), n)
	}
	got := make([]Row, n)
	for i := range got {
		got[i] = r2.Row(i)
	}
	if !reflect.DeepEqual(encodeRows(t, got), encodeRows(t, want)) {
		t.Fatal("recovered rows are not byte-identical to the inserted ones")
	}
	_ = wantVersion // version restarts per process; identity is fresh too
	// The tail is folded: reopening after Close serves from the epoch.
	if g := r2.cur(); g.base == nil || len(g.rows) != 0 {
		t.Fatalf("reopen after Close: base=%v tail=%d, want paged base with empty tail", g.base != nil, len(g.rows))
	}
}

func TestPersistWALRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.CreateTable("t", persistSchema())
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for i := 0; i < 40; i++ {
		row := persistRow(i)
		if err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, reencode(t, row))
	}
	// Simulate a crash: no Close, no Checkpoint — reopen from disk.
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := mustTable(t, st2, "t").(*Relation)
	got := r2.Rows()
	if !reflect.DeepEqual(encodeRows(t, got), encodeRows(t, want)) {
		t.Fatalf("WAL replay recovered %d rows, want %d byte-identical", len(got), len(want))
	}
}

func mustTable(t *testing.T, st *Store, name string) Table {
	t.Helper()
	tb, ok := st.Table(name)
	if !ok {
		t.Fatalf("store has no table %q", name)
	}
	return tb
}

// TestPersistCrashTortureMidAppend is the crash-recovery torture of the
// issue: the writer is killed mid-WAL-append (fault-injection at a
// sweep of cut points — inside the header, inside the payload, at
// zero bytes), the store is reopened cold, and the recovered
// generation must byte-identically equal the last durable prefix.
func TestPersistCrashTortureMidAppend(t *testing.T) {
	defer store.ClearWALFaults()
	for _, keep := range []int64{0, 3, 7, 8, 9, 20} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenStore(dir, StoreOptions{SyncWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			r, err := st.CreateTable("t", persistSchema())
			if err != nil {
				t.Fatal(err)
			}
			const durable = 25
			want := make([]Row, 0, durable)
			for i := 0; i < durable; i++ {
				row := persistRow(i)
				if err := r.Insert(row); err != nil {
					t.Fatal(err)
				}
				want = append(want, reencode(t, row))
			}
			// Kill the writer mid-append of row #durable.
			store.InstallWALFault(r.persist.wal.Path(), keep)
			if err := r.Insert(persistRow(durable)); err == nil {
				t.Fatal("insert during injected crash: want error")
			}
			// The crashed process is gone; a new one recovers the dir.
			st2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			r2 := mustTable(t, st2, "t").(*Relation)
			got := r2.Rows()
			if len(got) != durable {
				t.Fatalf("recovered %d rows, want the %d durable ones", len(got), durable)
			}
			if !reflect.DeepEqual(encodeRows(t, got), encodeRows(t, want)) {
				t.Fatal("recovered generation is not byte-identical to the durable prefix")
			}
			// The recovered store keeps working: appends land cleanly.
			if err := r2.Insert(persistRow(durable)); err != nil {
				t.Fatalf("insert after recovery: %v", err)
			}
			if r2.Len() != durable+1 {
				t.Fatalf("len after recovery insert: %d", r2.Len())
			}
		})
	}
}

func TestPersistCheckpointFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{PageBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := st.CreateTable("t", persistSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := r.Insert(persistRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	preVersion, preLen := r.Version(), r.Len()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint must not change logical contents or version (cached
	// bound forms stay keyed correctly), must empty the tail and WAL.
	if r.Version() != preVersion || r.Len() != preLen {
		t.Fatalf("checkpoint changed version/len: %d/%d -> %d/%d", preVersion, preLen, r.Version(), r.Len())
	}
	g := r.cur()
	if g.base == nil || len(g.rows) != 0 {
		t.Fatalf("checkpoint left base=%v tail=%d", g.base != nil, len(g.rows))
	}
	stats := st.Stats()
	if stats.WALBytes() != 0 {
		t.Fatalf("WAL not rotated: %d bytes", stats.WALBytes())
	}
	if stats.SegmentBytes() == 0 {
		t.Fatal("no segment bytes reported after checkpoint")
	}
	// Inserts keep flowing after a checkpoint.
	if err := r.Insert(persistRow(999)); err != nil {
		t.Fatal(err)
	}
	if r.Version() != preVersion+1 || r.Len() != preLen+1 {
		t.Fatalf("post-checkpoint insert: version %d len %d", r.Version(), r.Len())
	}
}

func TestPersistAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{AutoCheckpoint: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := st.CreateTable("t", persistSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 130; i++ {
		if err := r.Insert(persistRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	g := r.cur()
	if g.base == nil {
		t.Fatal("auto checkpoint never fired")
	}
	if len(g.rows) >= 50 {
		t.Fatalf("tail has %d rows despite threshold 50", len(g.rows))
	}
	if r.Len() != 130 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestPersistSortByDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := st.CreateTable("t", persistSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := r.Insert(persistRow(59 - i)); err != nil {
			t.Fatal(err)
		}
	}
	r.SortBy(func(a, b pref.Tuple) bool {
		av, _ := a.Get("price")
		bv, _ := b.Get("price")
		an, _ := pref.Numeric(av)
		bn, _ := pref.Numeric(bv)
		return an < bn
	})
	want := encodeRows(t, r.Rows())
	st.Close()

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := mustTable(t, st2, "t").(*Relation)
	if !reflect.DeepEqual(encodeRows(t, r2.Rows()), want) {
		t.Fatal("sorted order lost across reopen")
	}
	prices, _, _ := r2.FloatColumn("price")
	for i := 1; i < len(prices); i++ {
		if prices[i] < prices[i-1] {
			t.Fatalf("recovered rows unsorted at %d", i)
		}
	}
}

func TestPersistShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.CreateSharded("cars", persistSchema(), 4, ByHash("name"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Insert(persistRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make([][]byte, 4)
	for i := 0; i < 4; i++ {
		perShard[i] = encodeRows(t, s.Shard(i).Rows())
	}
	st.Close()

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := mustTable(t, st2, "cars").(*Sharded)
	if s2.Len() != n || s2.NumShards() != 4 {
		t.Fatalf("recovered %d rows / %d shards", s2.Len(), s2.NumShards())
	}
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(encodeRows(t, s2.Shard(i).Rows()), perShard[i]) {
			t.Fatalf("shard %d differs after reopen", i)
		}
	}
	// The recovered partitioner routes consistently: a new insert lands
	// on the shard its hash addresses, and only there.
	row := persistRow(777)
	target := s2.ShardOf(row)
	before := s2.Shard(target).Len()
	if err := s2.Insert(row); err != nil {
		t.Fatal(err)
	}
	if s2.Shard(target).Len() != before+1 {
		t.Fatal("recovered partitioner misroutes")
	}
}

func TestPersistReshardRefused(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := st.CreateSharded("cars", persistSchema(), 2, ByHash("name"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reshard(4, nil); err == nil {
		t.Fatal("Reshard of a persistent table must refuse")
	}
}

func TestPersistImportAndDrop(t *testing.T) {
	mem := New("car", persistSchema())
	for i := 0; i < 80; i++ {
		mem.MustInsert(persistRow(i))
	}
	memSharded, err := ShardRelation(mem, 3, ByHash("name"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportTable(mem); err != nil {
		t.Fatal(err)
	}
	memSharded.name = "car_sharded"
	if _, err := st.ImportTable(memSharded); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	flat := mustTable(t, st2, "car").(*Relation)
	if !reflect.DeepEqual(encodeRows(t, flat.Rows()), encodeRows(t, mem.Rows())) {
		t.Fatal("imported flat table differs after reopen")
	}
	sh := mustTable(t, st2, "car_sharded").(*Sharded)
	if sh.Len() != 80 || sh.NumShards() != 3 {
		t.Fatalf("imported sharded table: %d rows / %d shards", sh.Len(), sh.NumShards())
	}
	if err := st2.Drop("car"); err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Table("car"); ok {
		t.Fatal("dropped table still present")
	}
	if _, err := os.Stat(filepath.Join(dir, "car")); !os.IsNotExist(err) {
		t.Fatal("dropped table directory still on disk")
	}
}

// TestPersistColumnsAgree proves the persisted columnar segments serve
// the same FloatColumn/EqColumn semantics as the in-memory build.
func TestPersistColumnsAgree(t *testing.T) {
	for _, noMMap := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMMap=%v", noMMap), func(t *testing.T) {
			mem := New("car", persistSchema())
			for i := 0; i < 150; i++ {
				mem.MustInsert(persistRow(i))
			}
			mem.MustInsert(Row{nil, int64(1), math.NaN(), false, time.Now().UTC()})

			st, err := OpenStore(t.TempDir(), StoreOptions{NoMMap: noMMap})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			tb, err := st.ImportTable(mem)
			if err != nil {
				t.Fatal(err)
			}
			r := tb.(*Relation)
			if g := r.cur(); g.base == nil || len(g.rows) != 0 {
				t.Fatal("import did not produce a pure paged base")
			}
			for _, col := range []string{"price", "power", "built"} {
				wantV, wantOn, ok1 := mem.FloatColumn(col)
				gotV, gotOn, ok2 := r.FloatColumn(col)
				if ok1 != ok2 || len(wantV) != len(gotV) {
					t.Fatalf("%s: ok=%v/%v len=%d/%d", col, ok1, ok2, len(wantV), len(gotV))
				}
				for i := range wantV {
					same := wantV[i] == gotV[i] || (math.IsNaN(wantV[i]) && math.IsNaN(gotV[i]))
					if !same || wantOn[i] != gotOn[i] {
						t.Fatalf("%s[%d]: %v/%v vs %v/%v", col, i, wantV[i], wantOn[i], gotV[i], gotOn[i])
					}
				}
			}
			// Equality codes are opaque; assert the partition they induce
			// matches the in-memory one.
			for _, col := range []string{"name", "price", "fast"} {
				want, _ := mem.EqColumn(col)
				got, _ := r.EqColumn(col)
				if len(want) != len(got) {
					t.Fatalf("%s: eq len %d vs %d", col, len(want), len(got))
				}
				for i := range want {
					for j := i + 1; j < len(want); j++ {
						if (want[i] == want[j]) != (got[i] == got[j]) {
							t.Fatalf("%s: eq partition differs at (%d,%d)", col, i, j)
						}
					}
				}
			}
		})
	}
}

// TestPersistSnapshotPin8Readers is the issue's 8-reader snapshot-pin
// test: readers pin snapshots of a paged shard while a writer appends
// and auto-checkpoints churn the epoch under them. Every pinned
// snapshot must stay a frozen prefix of the insert history — same
// length, same rows, same column arrays — for its whole lifetime.
func TestPersistSnapshotPin8Readers(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{AutoCheckpoint: 40, PageBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, err := st.CreateTable("t", MustSchema(
		Column{Name: "id", Type: Int},
		Column{Name: "score", Type: Float},
	))
	if err != nil {
		t.Fatal(err)
	}
	seed := 100
	for i := 0; i < seed; i++ {
		r.MustInsert(Row{int64(i), float64(i) * 1.5})
	}

	const readers = 8
	const writes = 400
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				n := snap.Len()
				// Re-read the pinned snapshot several times while the
				// writer churns; it must never move.
				for pass := 0; pass < 3; pass++ {
					if snap.Len() != n {
						errc <- fmt.Errorf("snapshot length moved: %d -> %d", n, snap.Len())
						return
					}
					i := rng.Intn(n)
					id, _ := pref.Numeric(snap.Row(i)[0])
					if int(id) != i {
						errc <- fmt.Errorf("snapshot row %d holds id %d", i, int(id))
						return
					}
					vals, on, ok := snap.FloatColumn("score")
					if !ok || len(vals) != n || !on[i] || vals[i] != float64(i)*1.5 {
						errc <- fmt.Errorf("snapshot column torn at %d (len %d, want %d)", i, len(vals), n)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < writes; i++ {
		if err := r.Insert(Row{int64(seed + i), float64(seed+i) * 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if r.Len() != seed+writes {
		t.Fatalf("final len %d", r.Len())
	}
}

// TestPersistBeyondPoolBudget: a table whose on-disk image is well over
// 10x the configured buffer-pool budget still answers point reads and
// scans correctly, and the pool stays by and large within budget.
func TestPersistBeyondPoolBudget(t *testing.T) {
	const poolBudget = 16 << 10 // 16 KiB pool
	st, err := OpenStore(t.TempDir(), StoreOptions{PoolBytes: poolBudget, PageBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := New("big", persistSchema())
	const n = 4000
	for i := 0; i < n; i++ {
		mem.MustInsert(persistRow(i))
	}
	tb, err := st.ImportTable(mem)
	if err != nil {
		t.Fatal(err)
	}
	r := tb.(*Relation)
	stats := st.Stats()
	if stats.SegmentBytes() < 10*poolBudget {
		t.Fatalf("table too small for the test: %d segment bytes vs %d pool", stats.SegmentBytes(), poolBudget)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 500; k++ {
		i := rng.Intn(n)
		if !reflect.DeepEqual(encodeRows(t, []Row{r.Row(i)}), encodeRows(t, []Row{mem.Row(i)})) {
			t.Fatalf("paged row %d differs from in-memory", i)
		}
	}
	ps := st.Pool().Stats()
	if ps.Evictions == 0 {
		t.Fatalf("beyond-budget reads never evicted: %+v", ps)
	}
	if ps.ResidentBytes > poolBudget+4096 {
		t.Fatalf("pool over budget: %+v", ps)
	}
}

// TestPersistCheckpointKeepsPoolWorkingSet: a checkpoint scans every row
// page of the shard it rewrites, and the pool is store-wide — so the
// scan must read past the pool, not through it. After table A's point
// reads have warmed the pool, a checkpoint of table B (bigger than the
// whole pool) evicts nothing, and A's next read is still a hit. Before
// the fix every page of B was admitted and A's working set was gone
// after each auto-checkpoint of a neighbouring table.
func TestPersistCheckpointKeepsPoolWorkingSet(t *testing.T) {
	const poolBudget = 32 << 10
	st, err := OpenStore(t.TempDir(), StoreOptions{PoolBytes: poolBudget, PageBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	load := func(name string, n int) *Relation {
		mem := New(name, persistSchema())
		for i := 0; i < n; i++ {
			mem.MustInsert(persistRow(i))
		}
		tb, err := st.ImportTable(mem)
		if err != nil {
			t.Fatal(err)
		}
		return tb.(*Relation)
	}
	a, b := load("a", 300), load("b", 4000)
	if seg := st.Stats().SegmentBytes(); seg < 4*poolBudget {
		t.Fatalf("test premise: table b must dwarf the pool (%d segment bytes vs %d)", seg, poolBudget)
	}
	hot := []int{3, 57, 120, 233, 299}
	for _, i := range hot {
		a.Row(i)
	}
	// A tail for b, so its checkpoint has something to fold — and scans b.
	for i := 0; i < 10; i++ {
		if err := b.Insert(persistRow(5000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Pool().Stats()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := st.Pool().Stats()
	if after.Evictions != before.Evictions || after.Resident != before.Resident {
		t.Fatalf("checkpoint of b disturbed the pool: evictions %d→%d, resident pages %d→%d",
			before.Evictions, after.Evictions, before.Resident, after.Resident)
	}
	for _, i := range hot {
		a.Row(i)
	}
	if final := st.Pool().Stats(); final.Misses != after.Misses || final.Hits != after.Hits+uint64(len(hot)) {
		t.Fatalf("a's pages were not resident after b's checkpoint: hits %d→%d misses %d→%d",
			after.Hits, final.Hits, after.Misses, final.Misses)
	}
	if b.Len() != 4010 || !reflect.DeepEqual(encodeRows(t, []Row{b.Row(4005)}), encodeRows(t, []Row{reencode(t, persistRow(5005))})) {
		t.Fatal("the checkpointed table lost rows")
	}
}

// TestPersistPagedPickMatchesMemory: Pick over a reopened paged store
// returns exactly what its in-memory twin returns, through a snapshot
// pinned before inserts and a checkpoint retire its epochs, under a pool
// a small fraction of the row pages that evicts all the while.
func TestPersistPagedPickMatchesMemory(t *testing.T) {
	mem := New("car", persistSchema())
	for i := 0; i < 3000; i++ {
		mem.MustInsert(persistRow(i))
	}
	twin, err := ShardRelation(mem, 3, ByHash("name"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{PageBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ImportTable(twin); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, StoreOptions{PageBytes: 1024, PoolBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	paged := mustTable(t, st2, "car").(*Sharded)
	snap := paged.Snapshot()
	for i := 0; i < 30; i++ {
		if err := paged.Insert(persistRow(5000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	epochs := func() []uint64 {
		var out []uint64
		for i := 0; i < paged.NumShards(); i++ {
			out = append(out, paged.Shard(i).persist.epoch)
		}
		return out
	}
	before := epochs()
	if err := st2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := epochs(); reflect.DeepEqual(after, before) {
		t.Fatalf("checkpoint retired no epoch: %v", after)
	}

	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 40; round++ {
		gids := make([]int, 1+rng.Intn(300))
		for j := range gids {
			s := rng.Intn(twin.NumShards())
			gids[j] = GlobalID(s, rng.Intn(twin.Shard(s).Len()))
		}
		want := encodeRows(t, twin.Pick(gids).Rows())
		if got := encodeRows(t, snap.Pick(gids).Rows()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pinned snapshot's Pick differs from the in-memory twin", round)
		}
		if got := encodeRows(t, paged.Pick(gids).Rows()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: checkpointed table's Pick differs from the in-memory twin", round)
		}
	}
	if ps := st2.Pool().Stats(); ps.Evictions == 0 || ps.Hits == 0 {
		t.Fatalf("pool should both hit and evict under this test: %+v", ps)
	}
}
