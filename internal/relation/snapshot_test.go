package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pref"
)

func snapSchema() *Schema {
	return MustSchema(
		Column{Name: "oid", Type: Int},
		Column{Name: "price", Type: Int},
		Column{Name: "color", Type: String},
	)
}

func snapRow(i int) Row {
	return Row{int64(i), int64(1000 + i*7%997), []string{"red", "blue", "green"}[i%3]}
}

func buildSnapRelation(t *testing.T, n int) *Relation {
	t.Helper()
	r := New("snap", snapSchema())
	for i := 0; i < n; i++ {
		if err := r.Insert(snapRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestSnapshotPinsGeneration(t *testing.T) {
	r := buildSnapRelation(t, 10)
	v := r.Version()
	snap := r.Snapshot()
	if snap.Len() != 10 || snap.Version() != v {
		t.Fatalf("snapshot: len=%d version=%d, want 10, %d", snap.Len(), snap.Version(), v)
	}
	for i := 0; i < 5; i++ {
		if err := r.Insert(snapRow(10 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 15 || r.Version() != v+5 {
		t.Fatalf("head: len=%d version=%d", r.Len(), r.Version())
	}
	if snap.Len() != 10 || snap.Version() != v {
		t.Fatalf("snapshot moved: len=%d version=%d", snap.Len(), snap.Version())
	}
	for i := 0; i < snap.Len(); i++ {
		if !pref.EqualValues(snap.Row(i)[0], int64(i)) {
			t.Fatalf("snapshot row %d: %v", i, snap.Row(i))
		}
	}
}

func TestSnapshotMemoized(t *testing.T) {
	r := buildSnapRelation(t, 4)
	s1, s2 := r.Snapshot(), r.Snapshot()
	if s1 != s2 {
		t.Fatal("same-version snapshots have distinct identity (breaks bound-form cache sharing)")
	}
	if s1.Snapshot() != s1 {
		t.Fatal("snapshot of a snapshot is not itself")
	}
	if err := r.Insert(snapRow(4)); err != nil {
		t.Fatal(err)
	}
	s3 := r.Snapshot()
	if s3 == s1 {
		t.Fatal("post-insert snapshot shares identity with the stale pin")
	}
	if sv, ok := r.PeekSnapshot(); !ok || sv != s3 {
		t.Fatalf("PeekSnapshot: %v %v", sv, ok)
	}
}

func TestSnapshotIsReadOnly(t *testing.T) {
	r := buildSnapRelation(t, 3)
	snap := r.Snapshot()
	if err := snap.Insert(snapRow(3)); !errors.Is(err, ErrFrozen) {
		t.Fatalf("frozen insert: %v, want ErrFrozen", err)
	}
	if !snap.Frozen() || r.Frozen() {
		t.Fatal("frozen bits wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SortBy on a frozen view did not panic")
		}
	}()
	snap.SortBy(func(a, b pref.Tuple) bool { return false })
}

func TestSnapshotColumnsStayOnEpoch(t *testing.T) {
	r := buildSnapRelation(t, 8)
	snap := r.Snapshot()
	vals, onScale, ok := snap.FloatColumn("price")
	if !ok || len(vals) != 8 || len(onScale) != 8 {
		t.Fatalf("snapshot float column: ok=%v len=%d", ok, len(vals))
	}
	codes, ok := snap.EqColumn("color")
	if !ok || len(codes) != 8 {
		t.Fatalf("snapshot eq column: ok=%v len=%d", ok, len(codes))
	}
	for i := 0; i < 4; i++ {
		if err := r.Insert(snapRow(8 + i)); err != nil {
			t.Fatal(err)
		}
	}
	// The pinned arrays neither grow nor get rebuilt: same data, same
	// length, agreeing with the pinned rows.
	vals2, _, _ := snap.FloatColumn("price")
	if len(vals2) != 8 {
		t.Fatalf("pinned column grew to %d", len(vals2))
	}
	for i := range vals2 {
		if want, _ := pref.Numeric(snap.Row(i)[1]); vals2[i] != want {
			t.Fatalf("pinned column value %d: %v != %v", i, vals2[i], want)
		}
	}
	headVals, _, _ := r.FloatColumn("price")
	if len(headVals) != 12 {
		t.Fatalf("head column: %d values, want 12", len(headVals))
	}
}

// TestSnapshotSurvivesEviction is the deferred-reclamation regression
// test: dropping/replacing a catalog table sweeps its cached bound
// forms (engine.EvictRelation), but a pinned snapshot must keep its
// epoch's rows and column arrays intact until the last reader retires —
// eviction is a cache release, never a reclamation.
func TestSnapshotSurvivesEviction(t *testing.T) {
	r := buildSnapRelation(t, 16)
	snap := r.Snapshot()
	valsBefore, _, _ := snap.FloatColumn("price")
	want := make([]float64, len(valsBefore))
	copy(want, valsBefore)

	// Simulate Catalog.Replace racing the pinned reader: the head moves
	// on (several generations) while something evicts aggressively.
	for i := 0; i < 6; i++ {
		if err := r.Insert(snapRow(16 + i)); err != nil {
			t.Fatal(err)
		}
	}

	if snap.Len() != 16 {
		t.Fatalf("pinned snapshot len %d", snap.Len())
	}
	valsAfter, onScale, ok := snap.FloatColumn("price")
	if !ok || len(valsAfter) != 16 {
		t.Fatalf("pinned column after eviction: ok=%v len=%d", ok, len(valsAfter))
	}
	for i := range want {
		if valsAfter[i] != want[i] || !onScale[i] {
			t.Fatalf("reclaimed under a pinned reader: value %d is %v, want %v", i, valsAfter[i], want[i])
		}
	}
	for i := 0; i < 16; i++ {
		if !pref.EqualValues(snap.Row(i)[0], int64(i)) {
			t.Fatalf("pinned row %d torn: %v", i, snap.Row(i))
		}
	}
}

// TestSnapshotTortureFlat races one writer against many snapshot
// readers under -race: every pinned view must be exactly the first
// Len() rows of the deterministic insert history — never torn, never
// reordered, columns agreeing with rows.
func TestSnapshotTortureFlat(t *testing.T) {
	const total = 400
	const readers = 8
	r := buildSnapRelation(t, 50)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 50; i < total; i++ {
			if err := r.Insert(snapRow(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				n := snap.Len()
				if n < 50 || n > total {
					t.Errorf("snapshot len %d outside [50, %d]", n, total)
					return
				}
				// Spot-check rows against the deterministic history.
				for j := 0; j < 10; j++ {
					i := rng.Intn(n)
					want := snapRow(i)
					got := snap.Row(i)
					for c := range want {
						if !pref.EqualValues(got[c], want[c]) {
							t.Errorf("snapshot len %d row %d: %v, want %v", n, i, got, want)
							return
						}
					}
				}
				// Columns must agree with the pinned rows in length and value.
				vals, _, ok := snap.FloatColumn("price")
				if !ok || len(vals) != n {
					t.Errorf("snapshot len %d: column len %d", n, len(vals))
					return
				}
				i := rng.Intn(n)
				if want, _ := pref.Numeric(snap.Row(i)[1]); vals[i] != want {
					t.Errorf("snapshot column/row disagree at %d: %v != %v", i, vals[i], want)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// TestSnapshotTortureSharded is the sharded cut-consistency torture:
// with a single writer, every snapshot must be a prefix cut of the
// insert history — per shard, exactly the routed prefix rows in order.
func TestSnapshotTortureSharded(t *testing.T) {
	const total = 300
	const readers = 6
	const nShards = 3
	part := ByHash("oid")
	s, err := NewSharded("snap", snapSchema(), nShards, part)
	if err != nil {
		t.Fatal(err)
	}
	history := make([]Row, total)
	for i := range history {
		history[i] = snapRow(i)
	}
	// routedPrefix[n] would be O(total²) to precompute per length; the
	// readers reconstruct lazily from the shared history instead.
	for i := 0; i < 40; i++ {
		if err := s.Insert(history[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 40; i < total; i++ {
			if err := s.Insert(history[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				n := snap.Len()
				if n < 40 || n > total {
					t.Errorf("sharded snapshot len %d outside [40, %d]", n, total)
					return
				}
				// Rebuild the expected cut: route the first n history rows.
				want := make([][]Row, nShards)
				for i := 0; i < n; i++ {
					sh := part.ShardOf(history[i], snapSchema(), nShards)
					want[sh] = append(want[sh], history[i])
				}
				for sh := 0; sh < nShards; sh++ {
					got := snap.Shard(sh)
					if got.Len() != len(want[sh]) {
						t.Errorf("cut of %d rows: shard %d has %d, want %d (non-prefix cut)", n, sh, got.Len(), len(want[sh]))
						return
					}
					for i := 0; i < got.Len(); i++ {
						for c := range want[sh][i] {
							if !pref.EqualValues(got.Row(i)[c], want[sh][i][c]) {
								t.Errorf("cut of %d rows: shard %d row %d torn", n, sh, i)
								return
							}
						}
					}
				}
			}
		}(k)
	}
	wg.Wait()
}

func TestShardedSnapshotMemoizedAndFrozen(t *testing.T) {
	s, err := NewSharded("snap", snapSchema(), 2, ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Insert(snapRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2 := s.Snapshot(), s.Snapshot()
	if s1 != s2 {
		t.Fatal("same-cut sharded snapshots have distinct identity")
	}
	if s1.Snapshot() != s1 {
		t.Fatal("snapshot of a sharded snapshot is not itself")
	}
	if err := s1.Insert(snapRow(6)); err == nil {
		t.Fatal("insert into a frozen sharded view succeeded")
	}
	if _, err := s1.Reshard(4, ByHash("oid")); err == nil {
		t.Fatal("reshard of a frozen sharded view succeeded")
	}
	if err := s.Insert(snapRow(6)); err != nil {
		t.Fatal(err)
	}
	if s3 := s.Snapshot(); s3 == s1 {
		t.Fatal("post-insert sharded snapshot shares identity with the stale pin")
	}
	if s1.Len() != 6 {
		t.Fatalf("pinned sharded len %d, want 6", s1.Len())
	}
}

// TestShardedSnapshotGenerationIncreases: a sharded cut's generation is
// the table's mutation count at the cut — strictly increasing across
// inserts and a Reshard, whose fresh shards restart their versions (the
// sum of shard versions falls there) — and a one-shard view's is its
// relation's version.
func TestShardedSnapshotGenerationIncreases(t *testing.T) {
	s, err := NewSharded("snap", snapSchema(), 3, ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Insert(snapRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	versionSum := func(s *Sharded) (sum uint64) {
		for _, sh := range s.Shards() {
			sum += sh.Version()
		}
		return sum
	}
	first := s.Snapshot()
	if err := s.Insert(snapRow(6)); err != nil {
		t.Fatal(err)
	}
	second := s.Snapshot()
	if _, err := s.Reshard(5, nil); err != nil {
		t.Fatal(err)
	}
	third := s.Snapshot()
	if versionSum(third) >= versionSum(second) {
		t.Fatalf("test premise: the shard version sum must fall across the reshard (%d → %d)", versionSum(second), versionSum(third))
	}
	gens := []uint64{first.Generation(), second.Generation(), third.Generation(), s.Generation()}
	if gens[0] != 6 || gens[1] != 7 || gens[2] != 8 || gens[3] != 8 {
		t.Fatalf("generations %v, want [6 7 8 8]", gens)
	}
	r := buildSnapRelation(t, 4)
	view := OneShard(r)
	if view.Generation() != r.Version() || view.Snapshot().Generation() != r.Version() {
		t.Fatalf("one-shard view generation %d, relation version %d", view.Generation(), r.Version())
	}
	if err := r.Insert(snapRow(4)); err != nil {
		t.Fatal(err)
	}
	if view.Generation() != r.Version() {
		t.Fatalf("one-shard view generation %d after an insert, relation version %d", view.Generation(), r.Version())
	}
}

func TestSnapshotVersionsAcrossSortBy(t *testing.T) {
	r := buildSnapRelation(t, 5)
	snap := r.Snapshot()
	r.SortBy(func(a, b pref.Tuple) bool {
		av, _ := a.Get("price")
		bv, _ := b.Get("price")
		x, _ := pref.Numeric(av)
		y, _ := pref.Numeric(bv)
		return x < y
	})
	// The sort published a successor; the pin keeps insertion order.
	for i := 0; i < snap.Len(); i++ {
		if !pref.EqualValues(snap.Row(i)[0], int64(i)) {
			t.Fatalf("pinned row %d reordered by SortBy: %v", i, snap.Row(i))
		}
	}
	if r.Version() == snap.Version() {
		t.Fatal("SortBy did not bump the version")
	}
}

func TestGroupKeysOnSnapshot(t *testing.T) {
	r := buildSnapRelation(t, 9)
	snap := r.Snapshot()
	keys := snap.GroupKeys([]string{"color"})
	if len(keys) != 9 {
		t.Fatalf("group keys: %d, want 9", len(keys))
	}
	if err := r.Insert(snapRow(9)); err != nil {
		t.Fatal(err)
	}
	if len(snap.GroupKeys([]string{"color"})) != 9 {
		t.Fatal("pinned group keys grew")
	}
}

func TestFromColumnsStillColumnar(t *testing.T) {
	r, err := FromColumns("fc", snapSchema(),
		[]pref.Value{int64(1), int64(2)},
		[]pref.Value{int64(10), int64(20)},
		[]pref.Value{"red", "blue"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
	vals, _, ok := r.FloatColumn("price")
	if !ok || fmt.Sprint(vals) != "[10 20]" {
		t.Fatalf("FromColumns float column: %v %v", vals, ok)
	}
}
