package relation

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pref"
)

// edgePersistRow cycles every value kind the codec distinguishes through
// persistSchema's columns: NULL in each, the empty and a multibyte
// string, int64 min/max and an int beyond 2^53, NaN, ±Inf, −0, both
// bools and a TIME with nanoseconds.
func edgePersistRow(i int) Row {
	pick := func(vals ...pref.Value) pref.Value { return vals[i%len(vals)] }
	return Row{
		pick(nil, "", "Größe 日本 🚗", "car"),
		pick(int64(math.MinInt64), nil, int64(math.MaxInt64), int64(1)<<53+1, int64(-7)),
		pick(math.NaN(), math.Inf(1), nil, math.Inf(-1), math.Copysign(0, -1), 0.5),
		pick(true, false, nil),
		pick(time.Date(2024, 2, 29, 23, 59, 59, 999999999, time.UTC), nil, time.Unix(0, 0).UTC()),
	}
}

// encodedTwins returns a persistent table of n edge rows (checkpointed,
// then tail rows on top) in small pages and its in-memory twin.
func encodedTwins(t *testing.T, n, tail int, opts StoreOptions) (*Store, *Relation, *Relation) {
	t.Helper()
	mem := New("edge", persistSchema())
	for i := 0; i < n; i++ {
		mem.MustInsert(edgePersistRow(i))
	}
	st, err := OpenStore(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tbl, err := st.ImportTable(mem)
	if err != nil {
		t.Fatal(err)
	}
	paged := tbl.(*Relation)
	for i := n; i < n+tail; i++ {
		paged.MustInsert(edgePersistRow(i))
		mem.MustInsert(edgePersistRow(i))
	}
	return st, paged, mem
}

// appendColumns is every column frame body of r, back to back.
func appendColumns(t *testing.T, r *Relation) []byte {
	t.Helper()
	var out []byte
	for c := 0; c < r.Schema().Len(); c++ {
		var err error
		if out, err = r.AppendColumn(out, c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPersistEncodedPick: Pick out of a paged table holds the rows'
// encoded bytes — base rows copied out of their pages, tail rows
// encoded once — and reads back byte for byte what the in-memory twin's
// boxed Pick holds, for every value kind: row by row, whole, column by
// column, and again after a second Pick, a sort, a projection and
// through the OneShard view.
func TestPersistEncodedPick(t *testing.T) {
	const n, tail = 400, 25
	_, paged, mem := encodedTwins(t, n, tail, StoreOptions{PageBytes: 1024, PoolBytes: 4 << 10})
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		idx := make([]int, 1+rng.Intn(60))
		for j := range idx {
			idx[j] = rng.Intn(n + tail)
		}
		got, want := paged.Pick(idx), mem.Pick(idx)
		if _, ok := got.cur().base.(*encodedRows); !ok {
			t.Fatalf("Pick out of a paged table holds %T, want encoded rows", got.cur().base)
		}
		if _, ok := want.cur().base.(*encodedRows); ok {
			t.Fatal("Pick out of an in-memory table must stay boxed")
		}
		wantRows := encodeRows(t, want.Rows())
		for i := range idx {
			if !bytes.Equal(encodeRows(t, []Row{got.Row(i)}), encodeRows(t, []Row{want.Row(i)})) {
				t.Fatalf("round %d: Row(%d) = %v, want %v", round, i, got.Row(i), want.Row(i))
			}
		}
		if !bytes.Equal(encodeRows(t, got.Rows()), wantRows) {
			t.Fatalf("round %d: Rows differ from the boxed answer", round)
		}
		if !bytes.Equal(appendColumns(t, got), appendColumns(t, want)) {
			t.Fatalf("round %d: AppendColumn differs from the boxed answer", round)
		}
		sub := make([]int, len(idx)/2)
		for j := range sub {
			sub[j] = rng.Intn(len(idx))
		}
		if !bytes.Equal(appendColumns(t, got.Pick(sub)), appendColumns(t, want.Pick(sub))) {
			t.Fatalf("round %d: a Pick of the encoded answer differs", round)
		}
		byPrice := func(a, b pref.Tuple) bool {
			x, _ := a.Get("price")
			y, _ := b.Get("price")
			return pref.ValueKey(x) < pref.ValueKey(y)
		}
		got.SortBy(byPrice)
		want.SortBy(byPrice)
		if !bytes.Equal(appendColumns(t, got), appendColumns(t, want)) {
			t.Fatalf("round %d: the sorted answers differ", round)
		}
		gp, err := got.Project([]string{"built", "name"})
		if err != nil {
			t.Fatal(err)
		}
		wp, _ := want.Project([]string{"built", "name"})
		if !bytes.Equal(appendColumns(t, gp), appendColumns(t, wp)) {
			t.Fatalf("round %d: the projections differ", round)
		}
		if !bytes.Equal(appendColumns(t, OneShard(paged).Pick(idx)), appendColumns(t, mem.Pick(idx))) {
			t.Fatalf("round %d: the sharded Pick differs", round)
		}
	}
	if !bytes.Equal(appendColumns(t, paged), appendColumns(t, mem)) {
		t.Fatal("AppendColumn over the paged table itself differs from the in-memory table")
	}
}

// TestPersistPagedPickAllocs: with every page resident, a Pick of 37
// rows out of a paged table is a handful of allocations — the answer's
// bytes, its value offsets and the relation — not a boxed value per
// column per row.
func TestPersistPagedPickAllocs(t *testing.T) {
	_, paged, _ := encodedTwins(t, 2000, 0, StoreOptions{PageBytes: 4 << 10, PoolBytes: 64 << 20})
	idx := rand.New(rand.NewSource(37)).Perm(2000)[:37]
	paged.Pick(idx) // fill the pool
	if allocs := testing.AllocsPerRun(50, func() { paged.Pick(idx) }); allocs >= 30 {
		t.Fatalf("Pick of 37 resident rows: %.0f allocations, want under 30", allocs)
	}
}

// TestPersistTableBytesBoundedAcrossCheckpoints: every checkpoint leaves
// the epoch it supersedes open (for pinned snapshots) but retires its
// row-offset tables, so across K checkpoints with point reads between
// them — through the live table and through a snapshot pinned on the
// superseded epoch — the tables kept stay within what the live epoch's
// pages need, while the superseded epochs pile up until Close.
func TestPersistTableBytesBoundedAcrossCheckpoints(t *testing.T) {
	const n, k = 600, 8
	st, paged, _ := encodedTwins(t, n, 0, StoreOptions{PageBytes: 1024, PoolBytes: 2 << 10})
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < k; round++ {
		for i := 0; i < 20; i++ {
			paged.MustInsert(edgePersistRow(rng.Intn(n)))
		}
		pinned := paged.Snapshot()
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		idx := make([]int, 50)
		for j := range idx {
			idx[j] = rng.Intn(pinned.Len())
		}
		paged.Pick(idx)
		pinned.Pick(idx) // reads the retired epoch: validated again, kept nowhere
		live := paged.persist.ep
		var total int64
		st.epochMu.Lock()
		for _, ep := range st.epochs {
			total += ep.TableBytes()
		}
		open := len(st.epochs)
		st.epochMu.Unlock()
		if total == 0 || total != live.TableBytes() {
			t.Fatalf("round %d: %d table bytes kept over %d epochs, the live epoch's are %d", round, total, open, live.TableBytes())
		}
		// One offset per row plus one per page, and a page holds a row at
		// least.
		if bound := int64(8 * live.N()); total > bound {
			t.Fatalf("round %d: %d table bytes for %d live rows, bound %d", round, total, live.N(), bound)
		}
		if stats := st.Stats(); stats.EpochsOpen != round+2 || stats.Validations == 0 {
			t.Fatalf("round %d: %d epochs open, %d validations; want %d open", round, stats.EpochsOpen, stats.Validations, round+2)
		}
	}
}
