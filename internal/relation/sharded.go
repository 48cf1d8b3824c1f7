package relation

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pref"
)

// Sharded storage: a relation partitioned horizontally into N shards, each
// a normal *Relation with its own mutation Version, columnar arrays and
// equality-code caches. The BMO model is algebraically partitionable —
// max(P over A ∪ B) = max(P over max(P, A) ∪ max(P, B)) for every strict
// partial order — so every preference query evaluates shard-local first
// and merges candidate maxima, and the result cache (keyed per shard
// relation and version) and each shard generation's statistics amortize
// independently per shard. Rows route to
// shards by a Partitioner (hash or range over one attribute); global row
// ids address rows stably across the whole table.

// Table is the catalog-facing view shared by flat and sharded relations:
// psql.Catalog stores either, and query execution runs a flat relation as
// its one-shard view (OneShard).
type Table interface {
	// Name returns the table name.
	Name() string
	// Schema returns the table schema.
	Schema() *Schema
	// Len returns the total row count.
	Len() int
	// Insert appends a row (ErrFrozen on a Snapshot view).
	Insert(row Row) error
}

// Compile-time checks that both storage layouts satisfy the catalog view.
var (
	_ Table = (*Relation)(nil)
	_ Table = (*Sharded)(nil)
)

// gidShardShift splits a global row id into (shard, local): the shard
// index lives above bit 40, the shard-local row position below. A shard
// can hold 2^40 rows and a table 2^23 shards — both far beyond the
// in-memory store's reach — and the id of a row never changes as long as
// the table is not resharded (shards are append-only).
const gidShardShift = 40

// maxShards bounds the shard count so global ids stay positive int64s.
const maxShards = 1 << 23

// GlobalID packs a (shard, shard-local row) address into one stable int.
func GlobalID(shard, local int) int {
	return shard<<gidShardShift | local
}

// SplitGlobalID unpacks a global row id into its shard index and
// shard-local row position.
func SplitGlobalID(gid int) (shard, local int) {
	return gid >> gidShardShift, gid & (1<<gidShardShift - 1)
}

// Partitioner routes rows to shards. Implementations must be
// deterministic pure functions of the row values, so a row routes to the
// same shard no matter when it is inserted.
type Partitioner interface {
	// ShardOf returns the target shard in [0, n) for a row under the
	// given schema.
	ShardOf(row Row, schema *Schema, n int) int
	// String renders the partitioning spec (e.g. "hash(color)") for
	// query explanation.
	String() string
}

// hashPart partitions by a hash of one attribute's canonical value key.
type hashPart struct{ attr string }

// ByHash returns a Partitioner distributing rows by a hash of the named
// attribute (pref.ValueKey canonical encoding, so numeric cross-type
// equality hashes consistently). NULLs all hash to one shard.
func ByHash(attr string) Partitioner { return hashPart{attr: attr} }

// ShardOf implements Partitioner. The FNV-1a loop is inlined so routing
// a row — the hot path of Insert and ShardRelation — allocates nothing
// beyond the canonical key string.
func (p hashPart) ShardOf(row Row, schema *Schema, n int) int {
	if n <= 1 {
		return 0
	}
	var key string
	if i, ok := schema.Index(p.attr); ok && row[i] != nil {
		key = pref.ValueKey(row[i])
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// String implements Partitioner.
func (p hashPart) String() string { return fmt.Sprintf("hash(%s)", p.attr) }

// rangePart partitions a linearly ordered attribute by upper bounds.
type rangePart struct {
	attr   string
	bounds []float64
}

// ByRange returns a Partitioner distributing rows by ranges of the named
// numeric (or time) attribute: shard i holds values below bounds[i], the
// last shard everything else, so the shard count must be len(bounds)+1.
// NULLs and values off the linear scale go to shard 0.
func ByRange(attr string, bounds ...float64) Partitioner {
	return rangePart{attr: attr, bounds: append([]float64(nil), bounds...)}
}

// ShardOf implements Partitioner.
func (p rangePart) ShardOf(row Row, schema *Schema, n int) int {
	if n <= 1 {
		return 0
	}
	i, ok := schema.Index(p.attr)
	if !ok || row[i] == nil {
		return 0
	}
	v, ok := pref.Numeric(row[i])
	if !ok {
		if t, isTime := row[i].(time.Time); isTime {
			v = float64(t.Unix())
		} else {
			return 0
		}
	}
	if math.IsNaN(v) {
		return 0
	}
	for s, b := range p.bounds {
		if s >= n-1 {
			break
		}
		if v < b {
			return s
		}
	}
	return min(len(p.bounds), n-1)
}

// String implements Partitioner.
func (p rangePart) String() string { return fmt.Sprintf("range(%s)", p.attr) }

// onePart is the partitioner of a one-shard view: every row is shard 0's.
type onePart struct{}

// ShardOf implements Partitioner.
func (onePart) ShardOf(Row, *Schema, int) int { return 0 }

// String implements Partitioner.
func (onePart) String() string { return "none" }

// shardCountChecker is implemented by partitioners that can sanity-check
// a shard count; NewSharded and Reshard consult it so a misconfigured
// partitioner fails loudly instead of silently skewing the table.
type shardCountChecker interface {
	checkShards(n int) error
}

// checkShards rejects shard counts the bound list cannot address — in
// particular the zero-bound case RangeBounds produces for non-numeric
// attributes, which would route every row to shard 0.
func (p rangePart) checkShards(n int) error {
	if len(p.bounds)+1 != n {
		return fmt.Errorf("relation: range partitioner on %s has %d bounds for %d shards (want %d)",
			p.attr, len(p.bounds), n, n-1)
	}
	return nil
}

// RangeBounds computes n-1 equi-depth upper bounds of the named attribute
// over an existing relation, for ByRange sharding into n shards of
// roughly equal size. Rows without an on-scale value are ignored.
func RangeBounds(r *Relation, attr string, n int) []float64 {
	vals, onScale, ok := r.FloatColumn(attr)
	if !ok || n < 2 {
		return nil
	}
	kept := make([]float64, 0, len(vals))
	for i, v := range vals {
		if onScale[i] && !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	slices.Sort(kept)
	bounds := make([]float64, n-1)
	for k := 1; k < n; k++ {
		bounds[k-1] = kept[k*len(kept)/n]
	}
	return bounds
}

// Sharded is a horizontally partitioned table: N shards, each a normal
// *Relation sharing one schema, with rows routed by the Partitioner.
// Shards are append-only (no deletes exist in the store), so a global
// row id — GlobalID(shard, local) — addresses its row stably. Reads of
// distinct shards never contend: each shard owns its rows, columnar
// arrays and caches outright. The shard list and partitioner are
// published through an atomic pointer (swapped only by Reshard), and a
// table-level reader/writer lock coordinates Inserts against Snapshot so
// a pinned snapshot is a consistent cut across every shard.
type Sharded struct {
	name   string
	schema *Schema
	frozen bool

	// mu: Insert holds it shared (concurrent inserts still fan out —
	// per-shard writer locks do the serialization), Snapshot and Reshard
	// hold it exclusively for the brief pin/swap.
	mu    sync.RWMutex
	state atomic.Pointer[shardState]

	// mutations counts row inserts and reshard swaps; the memoized
	// snapshot is valid while it is unchanged. A snapshot holds the
	// count at its cut (see Generation).
	mutations atomic.Uint64
	snapAt    uint64
	snap      *Sharded
}

// shardState is the swappable part of a sharded table: the shard list
// and the partitioner that routes into it.
type shardState struct {
	part   Partitioner
	shards []*Relation
}

// NewSharded creates an empty sharded table with nShards shards.
func NewSharded(name string, schema *Schema, nShards int, part Partitioner) (*Sharded, error) {
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("relation %s: shard count %d outside [1, %d]", name, nShards, maxShards)
	}
	if part == nil {
		return nil, fmt.Errorf("relation %s: nil partitioner", name)
	}
	if c, ok := part.(shardCountChecker); ok {
		if err := c.checkShards(nShards); err != nil {
			return nil, fmt.Errorf("relation %s: %w", name, err)
		}
	}
	shards := make([]*Relation, nShards)
	for i := range shards {
		shards[i] = New(fmt.Sprintf("%s#%d", name, i), schema)
	}
	s := &Sharded{name: name, schema: schema}
	s.state.Store(&shardState{part: part, shards: shards})
	return s, nil
}

// ShardRelation distributes an existing relation's rows into a new
// sharded table with nShards shards under the given partitioner. The
// source relation is left untouched; row value slices are shared (rows
// are immutable by convention throughout the store).
func ShardRelation(r *Relation, nShards int, part Partitioner) (*Sharded, error) {
	s, err := NewSharded(r.Name(), r.Schema(), nShards, part)
	if err != nil {
		return nil, err
	}
	st := s.state.Load()
	buckets := make([][]Row, nShards)
	for _, row := range r.Rows() {
		t := st.part.ShardOf(row, s.schema, nShards)
		buckets[t] = append(buckets[t], row)
	}
	for i, sh := range st.shards {
		sh.setRows(buckets[i])
	}
	return s, nil
}

// OneShard returns r as a one-shard table: a *Sharded whose shard 0 is r
// itself. No row is copied, GlobalID(0, i) == i, and every cache keyed by
// a shard's identity and version keys on r's, so a flat relation and its
// view share their bound forms and results. Inserts through the view land
// in r; the view of a Snapshot is frozen, and a view cannot be resharded.
// The view is memoized on r.
func OneShard(r *Relation) *Sharded {
	if v := r.view.Load(); v != nil {
		return v
	}
	v := &Sharded{name: r.name, schema: r.schema, frozen: r.frozen}
	v.state.Store(&shardState{part: onePart{}, shards: []*Relation{r}})
	if !r.view.CompareAndSwap(nil, v) {
		return r.view.Load()
	}
	return v
}

// Name returns the table name.
func (s *Sharded) Name() string { return s.name }

// Schema returns the shared schema.
func (s *Sharded) Schema() *Schema { return s.schema }

// Frozen reports whether the table is an immutable Snapshot view.
func (s *Sharded) Frozen() bool { return s.frozen }

// Len returns the total row count across every shard.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.state.Load().shards {
		n += sh.Len()
	}
	return n
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.state.Load().shards) }

// Shard returns shard i; callers must not mutate it directly (route rows
// through Insert so the partitioning invariant holds).
func (s *Sharded) Shard(i int) *Relation { return s.state.Load().shards[i] }

// Shards returns the shard list; callers must not modify the slice.
func (s *Sharded) Shards() []*Relation { return s.state.Load().shards }

// Part returns the partitioner.
func (s *Sharded) Part() Partitioner { return s.state.Load().part }

// ShardOf returns the shard a row routes to under the partitioner.
func (s *Sharded) ShardOf(row Row) int {
	st := s.state.Load()
	return st.part.ShardOf(row, s.schema, len(st.shards))
}

// Insert routes the row to its shard after the usual schema type check.
// Concurrent Inserts are safe: inserts into distinct shards proceed in
// parallel (each shard serializes its own writers), and the table-level
// read lock only excludes the brief exclusive sections of Snapshot and
// Reshard, keeping snapshots consistent cuts.
func (s *Sharded) Insert(row Row) error {
	if s.frozen {
		return fmt.Errorf("relation %s: %w", s.name, ErrFrozen)
	}
	if len(row) != s.schema.Len() {
		return fmt.Errorf("relation %s: row arity %d does not match schema arity %d", s.name, len(row), s.schema.Len())
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.state.Load()
	err := st.shards[st.part.ShardOf(row, s.schema, len(st.shards))].Insert(row)
	if err == nil {
		s.mutations.Add(1)
	}
	return err
}

// Snapshot pins a consistent cut of the whole table: a frozen *Sharded
// whose shards are the per-shard Snapshot views, taken under the
// table-level exclusive lock so no insert lands between pinning shard 0
// and shard N-1. Single-row Inserts are therefore atomic with respect to
// snapshots — a pinned cut reflects a prefix of the table's insert
// history, never a row without its predecessors. The cut is memoized
// until the next mutation, so concurrent sessions pinning the same epoch
// share shard identities and their cached results. Snapshot of a
// frozen view returns the view itself; of a OneShard view, the view of
// its relation's Snapshot (rows may reach that relation directly).
func (s *Sharded) Snapshot() *Sharded {
	if s.frozen {
		return s
	}
	if st := s.state.Load(); st.part == (onePart{}) {
		return OneShard(st.shards[0].Snapshot())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.mutations.Load(); s.snap != nil && s.snapAt == m {
		return s.snap
	} else {
		st := s.state.Load()
		shards := make([]*Relation, len(st.shards))
		for i, sh := range st.shards {
			shards[i] = sh.Snapshot()
		}
		snap := &Sharded{name: s.name, schema: s.schema, frozen: true}
		snap.state.Store(&shardState{part: st.part, shards: shards})
		snap.mutations.Store(m)
		s.snap, s.snapAt = snap, m
		return snap
	}
}

// Generation numbers the table's cuts: the count of row inserts and
// reshard swaps, read at the cut for a Snapshot. It strictly increases
// with every mutation, so two cuts of one table hold the same rows in the
// same shards exactly when their generations are equal — unlike the sum
// of shard versions, which a Reshard resets. A one-shard view's
// generation is its relation's Version.
func (s *Sharded) Generation() uint64 {
	if st := s.state.Load(); st.part == (onePart{}) {
		return st.shards[0].Version()
	}
	return s.mutations.Load()
}

// MustInsert is Insert that panics on error; for test fixtures.
func (s *Sharded) MustInsert(rows ...Row) *Sharded {
	for _, row := range rows {
		if err := s.Insert(row); err != nil {
			panic(err)
		}
	}
	return s
}

// Row returns the row at a global id; callers must not modify it.
func (s *Sharded) Row(gid int) Row {
	shard, local := SplitGlobalID(gid)
	return s.state.Load().shards[shard].Row(local)
}

// Tuple returns the pref.Tuple view of the row at a global id.
func (s *Sharded) Tuple(gid int) pref.Tuple {
	shard, local := SplitGlobalID(gid)
	return s.state.Load().shards[shard].Tuple(local)
}

// Pick materializes the rows at the given global ids as a new flat
// (derived) relation, in id order. When a shard has a paged base the
// answer holds the rows' encoded bytes, as Relation.Pick's does.
func (s *Sharded) Pick(gids []int) *Relation {
	st := s.state.Load()
	for _, sh := range st.shards {
		if sh.cur().base == nil {
			continue
		}
		enc := newEncodedRows(s.schema.Len(), len(gids))
		for _, gid := range gids {
			shard, local := SplitGlobalID(gid)
			enc.add(st.shards[shard].cur(), local)
		}
		return newEncoded(s.name, s.schema, enc.done())
	}
	rows := make([]Row, 0, len(gids))
	for _, gid := range gids {
		shard, local := SplitGlobalID(gid)
		rows = append(rows, st.shards[shard].Row(local))
	}
	return newDerived(s.name, s.schema, rows)
}

// Flatten materializes the union of every shard as a new flat (derived)
// relation in shard-major order. The planner's flat evaluation path and
// agreement tests use it; per-query flattening is exactly the cost the
// sharded evaluation paths avoid.
func (s *Sharded) Flatten() *Relation {
	var rows []Row
	for _, sh := range s.state.Load().shards {
		rows = append(rows, sh.Rows()...)
	}
	return newDerived(s.name, s.schema, rows)
}

// Reshard redistributes every row into nShards fresh shards under a new
// partitioner and returns the displaced shard relations; the sharded
// table keeps its identity. Global row ids are NOT stable across a
// Reshard — it is the one operation that re-addresses rows. Pinned
// Snapshots keep addressing the displaced shards. Every registered
// DisplacedHook fires with the displaced shard list before Reshard
// returns, so caches keyed by the old shard identities (bound forms,
// rank score/perm vectors, memoized BMO maxima) are swept eagerly —
// callers no longer need to remember the eviction themselves, though
// the displaced list is still returned for them. Persistent tables
// (opened through a Store) cannot be resharded in place: their shard
// directories are the unit of recovery, so redistribution goes through
// Store.ImportTable into a new table instead; nor can a OneShard view,
// whose shard is its relation (shard the relation with ShardRelation).
func (s *Sharded) Reshard(nShards int, part Partitioner) ([]*Relation, error) {
	if s.frozen {
		return nil, fmt.Errorf("relation %s: %w", s.name, ErrFrozen)
	}
	if st := s.state.Load(); st.part == (onePart{}) {
		return nil, fmt.Errorf("relation %s: a one-shard view cannot be resharded", s.name)
	} else if st.shards[0].persist != nil {
		return nil, fmt.Errorf("relation %s: persistent tables cannot be resharded in place", s.name)
	}
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("relation %s: shard count %d outside [1, %d]", s.name, nShards, maxShards)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if part == nil {
		part = st.part
	}
	if c, ok := part.(shardCountChecker); ok {
		if err := c.checkShards(nShards); err != nil {
			return nil, fmt.Errorf("relation %s: %w", s.name, err)
		}
	}
	next := make([]*Relation, nShards)
	buckets := make([][]Row, nShards)
	for i := range next {
		next[i] = New(fmt.Sprintf("%s#%d", s.name, i), s.schema)
	}
	for _, sh := range st.shards {
		for _, row := range sh.Rows() {
			t := part.ShardOf(row, s.schema, nShards)
			buckets[t] = append(buckets[t], row)
		}
	}
	for i, sh := range next {
		sh.setRows(buckets[i])
	}
	s.state.Store(&shardState{part: part, shards: next})
	s.mutations.Add(1)
	runDisplacedHooks(st.shards)
	return st.shards, nil
}

// String renders the table as an aligned text table (shard-major order).
func (s *Sharded) String() string {
	return s.Flatten().String()
}
