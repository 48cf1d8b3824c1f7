package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pref"
)

func shardedTestSchema() *Schema {
	return MustSchema(
		Column{Name: "oid", Type: Int},
		Column{Name: "price", Type: Float},
		Column{Name: "color", Type: String},
	)
}

func shardedTestRelation(n int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	colors := []string{"red", "blue", "green", "black"}
	r := New("car", shardedTestSchema())
	for i := 0; i < n; i++ {
		var color pref.Value
		if rng.Intn(10) > 0 {
			color = colors[rng.Intn(len(colors))]
		}
		r.MustInsert(Row{i, math.Floor(rng.Float64()*1000) / 10, color})
	}
	return r
}

// TestGlobalIDRoundTrip pins the (shard, local) packing.
func TestGlobalIDRoundTrip(t *testing.T) {
	cases := [][2]int{{0, 0}, {0, 5}, {3, 0}, {7, 1 << 20}, {maxShards - 1, 123}}
	for _, c := range cases {
		gid := GlobalID(c[0], c[1])
		shard, local := SplitGlobalID(gid)
		if shard != c[0] || local != c[1] {
			t.Fatalf("round trip (%d,%d) → %d → (%d,%d)", c[0], c[1], gid, shard, local)
		}
	}
}

// TestShardRelationPartition: every row lands in exactly one shard, on the
// shard the partitioner routes it to, and the union is the source multiset.
func TestShardRelationPartition(t *testing.T) {
	flat := shardedTestRelation(500, 1)
	for _, part := range []Partitioner{ByHash("color"), ByHash("oid"), ByRange("price", RangeBounds(flat, "price", 4)...)} {
		s, err := ShardRelation(flat, 4, part)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != flat.Len() {
			t.Fatalf("%s: sharded Len %d, want %d", part, s.Len(), flat.Len())
		}
		seen := make(map[int]bool, flat.Len())
		for i, sh := range s.Shards() {
			for j := 0; j < sh.Len(); j++ {
				row := sh.Row(j)
				if got := s.ShardOf(row); got != i {
					t.Fatalf("%s: row %v stored in shard %d but routes to %d", part, row, i, got)
				}
				oid := row[0].(int)
				if seen[oid] {
					t.Fatalf("%s: row oid=%d present twice", part, oid)
				}
				seen[oid] = true
			}
		}
		if len(seen) != flat.Len() {
			t.Fatalf("%s: %d distinct rows, want %d", part, len(seen), flat.Len())
		}
	}
}

// TestShardedInsertRoutes: Insert routes by the partitioner and the global
// id addresses the inserted row.
func TestShardedInsertRoutes(t *testing.T) {
	s, err := NewSharded("car", shardedTestSchema(), 3, ByHash("color"))
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{{1, 10.0, "red"}, {2, 20.0, "blue"}, {3, 30.0, nil}, {4, 40.0, "red"}}
	for _, row := range rows {
		want := s.ShardOf(row)
		before := s.Shard(want).Len()
		if err := s.Insert(row); err != nil {
			t.Fatal(err)
		}
		gid := GlobalID(want, before)
		got := s.Row(gid)
		if got[0] != row[0] {
			t.Fatalf("global id %d reads oid %v, want %v", gid, got[0], row[0])
		}
	}
	if s.Len() != len(rows) {
		t.Fatalf("Len %d after %d inserts", s.Len(), len(rows))
	}
	// Same color ⇒ same shard, always.
	if s.ShardOf(rows[0]) != s.ShardOf(rows[3]) {
		t.Fatal("hash partitioner must route equal keys to one shard")
	}
	if err := s.Insert(Row{"bad", 1.0, "red"}); err == nil {
		t.Fatal("Insert must type-check against the schema")
	}
}

// TestRangePartitioner pins the bound semantics: shard i holds values
// below bounds[i], the last shard the rest, NULL and NaN to shard 0.
func TestRangePartitioner(t *testing.T) {
	schema := shardedTestSchema()
	part := ByRange("price", 10, 20)
	cases := []struct {
		price pref.Value
		want  int
	}{
		{5.0, 0}, {9.99, 0}, {10.0, 1}, {15.0, 1}, {20.0, 2}, {1e9, 2},
		{nil, 0}, {math.NaN(), 0},
	}
	for _, c := range cases {
		got := part.ShardOf(Row{1, c.price, "red"}, schema, 3)
		if got != c.want {
			t.Errorf("price %v → shard %d, want %d", c.price, got, c.want)
		}
	}
	// More shards than bounds+1 must still stay in range.
	if got := part.ShardOf(Row{1, 99.0, "x"}, schema, 2); got > 1 {
		t.Fatalf("shard %d out of range for n=2", got)
	}
}

// TestRangePartitionerShardCountValidated: a bound list that cannot
// address the shard count — in particular the empty list RangeBounds
// yields for non-numeric attributes — must fail loudly at table
// construction instead of silently routing every row to shard 0.
func TestRangePartitionerShardCountValidated(t *testing.T) {
	flat := shardedTestRelation(50, 19)
	if _, err := ShardRelation(flat, 4, ByRange("color", RangeBounds(flat, "color", 4)...)); err == nil {
		t.Fatal("zero range bounds over 4 shards must be rejected")
	}
	if _, err := NewSharded("t", flat.Schema(), 3, ByRange("price", 10)); err == nil {
		t.Fatal("1 bound for 3 shards must be rejected")
	}
	s, err := ShardRelation(flat, 2, ByRange("price", 50))
	if err != nil {
		t.Fatalf("matching bounds must be accepted: %v", err)
	}
	if _, err := s.Reshard(5, ByRange("price", 10, 20, 30)); err == nil {
		t.Fatal("Reshard must validate the new partitioner's bound count")
	}
}

// TestReshard redistributes the full multiset, returns the displaced
// shards, and re-addresses rows under the new partitioner.
func TestReshard(t *testing.T) {
	flat := shardedTestRelation(300, 7)
	s, err := ShardRelation(flat, 2, ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	oldShards := s.Shards()
	displaced, err := s.Reshard(5, ByHash("color"))
	if err != nil {
		t.Fatal(err)
	}
	if len(displaced) != 2 || displaced[0] != oldShards[0] {
		t.Fatal("Reshard must return the displaced shard relations")
	}
	if s.NumShards() != 5 || s.Len() != flat.Len() {
		t.Fatalf("after Reshard: %d shards, %d rows", s.NumShards(), s.Len())
	}
	var got []int
	for _, sh := range s.Shards() {
		for j := 0; j < sh.Len(); j++ {
			got = append(got, sh.Row(j)[0].(int))
		}
	}
	sort.Ints(got)
	for i, oid := range got {
		if oid != i {
			t.Fatalf("row multiset changed: position %d holds oid %d", i, oid)
		}
	}
}

// TestShardedPickFlatten: Pick materializes global ids in order as an
// ephemeral relation; Flatten is the shard-major union.
func TestShardedPickFlatten(t *testing.T) {
	flat := shardedTestRelation(50, 3)
	s, err := ShardRelation(flat, 3, ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	var gids []int
	for i, sh := range s.Shards() {
		if sh.Len() > 0 {
			gids = append(gids, GlobalID(i, sh.Len()-1))
		}
	}
	picked := s.Pick(gids)
	if !picked.Ephemeral() {
		t.Fatal("Pick result must be ephemeral (derived)")
	}
	if picked.Len() != len(gids) {
		t.Fatalf("picked %d rows, want %d", picked.Len(), len(gids))
	}
	for k, gid := range gids {
		if picked.Row(k)[0] != s.Row(gid)[0] {
			t.Fatalf("Pick order mismatch at %d", k)
		}
	}
	flattened := s.Flatten()
	if !flattened.Ephemeral() || flattened.Len() != flat.Len() {
		t.Fatal("Flatten must be an ephemeral union of all shards")
	}
}

// TestRangeBounds: equi-depth bounds split a uniform column into shards
// of comparable size.
func TestRangeBounds(t *testing.T) {
	flat := shardedTestRelation(1000, 11)
	bounds := RangeBounds(flat, "price", 4)
	if len(bounds) != 3 {
		t.Fatalf("want 3 bounds, got %v", bounds)
	}
	if !sort.Float64sAreSorted(bounds) {
		t.Fatalf("bounds must ascend: %v", bounds)
	}
	s, err := ShardRelation(flat, 4, ByRange("price", bounds...))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.Shards() {
		if sh.Len() < flat.Len()/8 {
			t.Errorf("shard %d badly unbalanced: %d of %d rows", i, sh.Len(), flat.Len())
		}
	}
	if RangeBounds(flat, "color", 4) != nil {
		t.Fatal("RangeBounds over a string column must report nil")
	}
}

// TestShardVersionsIndependent: mutating one shard must not disturb the
// versions (and therefore the cache entries) of its siblings.
func TestShardVersionsIndependent(t *testing.T) {
	flat := shardedTestRelation(100, 5)
	s, err := ShardRelation(flat, 4, ByHash("oid"))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]uint64, s.NumShards())
	for i, sh := range s.Shards() {
		before[i] = sh.Version()
	}
	row := Row{10001, 3.0, "red"}
	target := s.ShardOf(row)
	if err := s.Insert(row); err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.Shards() {
		bumped := sh.Version() != before[i]
		if i == target && !bumped {
			t.Fatal("target shard version must bump on Insert")
		}
		if i != target && bumped {
			t.Fatalf("shard %d version bumped without a mutation", i)
		}
	}
}

// TestShardedStringRenders smoke-tests the table rendering.
func TestShardedStringRenders(t *testing.T) {
	s, _ := NewSharded("t", shardedTestSchema(), 2, ByHash("oid"))
	s.MustInsert(Row{1, 2.5, "red"})
	if s.String() == "" {
		t.Fatal("String must render")
	}
	_ = fmt.Sprintf("%v", s)
}

// TestOneShardView: a flat relation's one-shard view is the relation
// itself as shard 0 — same identity, ids equal to positions, inserts in
// either direction visible through both, a snapshot that is the view of
// the relation's snapshot, and no resharding.
func TestOneShardView(t *testing.T) {
	r := shardedTestRelation(20, 3)
	v := OneShard(r)
	if v != OneShard(r) {
		t.Fatal("the view must be memoized on its relation")
	}
	if v.NumShards() != 1 || v.Shard(0) != r || v.Len() != r.Len() || v.Name() != r.Name() {
		t.Fatalf("view: %d shards, shard 0 is r: %v, len %d", v.NumShards(), v.Shard(0) == r, v.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if gid := GlobalID(0, i); gid != i || &v.Row(gid)[0] != &r.Row(i)[0] {
			t.Fatalf("row %d: global id %d does not address the relation's row", i, gid)
		}
	}
	snap := v.Snapshot()
	if !snap.Frozen() || snap.Shard(0) != r.Snapshot() || snap != OneShard(r.Snapshot()) {
		t.Fatal("a view's snapshot must be the view of its relation's snapshot")
	}
	row := Row{int64(99), 1.5, "red"}
	if err := v.Insert(row); err != nil || r.Len() != 21 {
		t.Fatalf("insert through the view: %v, relation len %d", err, r.Len())
	}
	r.MustInsert(row)
	if got := v.Snapshot(); got.Len() != 22 || snap.Len() != 20 {
		t.Fatalf("a direct insert must reach the view's next snapshot (len %d) and not the pinned one (len %d)", got.Len(), snap.Len())
	}
	if err := snap.Insert(row); !errors.Is(err, ErrFrozen) {
		t.Fatalf("insert into a frozen view: %v, want ErrFrozen", err)
	}
	if _, err := v.Reshard(2, ByHash("oid")); err == nil || r.Len() != 22 || v.Shard(0) != r {
		t.Fatal("a one-shard view must refuse to reshard")
	}
}
