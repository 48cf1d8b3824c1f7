// Package relation is the relational substrate the preference library
// evaluates against: typed schemas, in-memory relations, projection, hard
// selection, grouping and CSV interchange. A relation's rows expose the
// pref.Tuple view required by preference evaluation, so database sets R
// plug directly into the BMO query model of §5.
package relation

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/pref"
)

// Type enumerates the supported column types.
type Type int

// Column types.
const (
	String Type = iota
	Int
	Float
	Bool
	Time
)

// String renders the type name.
func (t Type) String() string {
	switch t {
	case String:
		return "STRING"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Bool:
		return "BOOL"
	case Time:
		return "TIME"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Column is one attribute of a schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns with unique names.
type Schema struct {
	cols  []Column
	index map[string]int
}

// NewSchema builds a schema, rejecting duplicate column names.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on duplicates; for literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns the column list; callers must not modify it.
func (s *Schema) Columns() []Column { return s.cols }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Col returns the column at position i.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Names returns the column names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// checkValue verifies v is assignable to column type t.
func checkValue(t Type, v pref.Value) error {
	if v == nil {
		return nil
	}
	switch t {
	case String:
		if _, ok := v.(string); ok {
			return nil
		}
	case Int:
		switch v.(type) {
		case int, int8, int16, int32, int64:
			return nil
		}
	case Float:
		if _, ok := pref.Numeric(v); ok {
			return nil
		}
	case Bool:
		if _, ok := v.(bool); ok {
			return nil
		}
	case Time:
		if _, ok := v.(time.Time); ok {
			return nil
		}
	}
	return fmt.Errorf("relation: value %v (%T) not assignable to %s column", v, v, t)
}

// Row is one tuple's values in schema order.
type Row []pref.Value

// generation is one immutable epoch of a relation's storage: the row
// slice at a mutation version, plus the derived typed-column caches built
// lazily from exactly those rows. Mutators never modify a published
// generation — they build a successor and swap the relation's pointer —
// so any reader (or pinned Snapshot) that loaded a generation keeps a
// torn-free view for as long as it holds the pointer: rows, float
// columns, equality codes, group codes and statistics all agree on one
// version.
// Reclamation is epoch-based by construction: a superseded generation's
// arrays live until the last pinned reader drops it, then the garbage
// collector retires the epoch — there is no eager free to race against.
//
// A persistent relation's generation additionally carries a base: the
// immutable on-disk prefix (a checkpointed segment epoch, rows decoded
// on demand through the store's buffer pool, column arrays served as
// mmap'd views). rows then holds only the in-memory tail appended since
// the last checkpoint — the rows the WAL would replay after a crash.
// Snapshot pinning extends naturally: a pinned generation keeps its
// base (and therefore its epoch's mappings) reachable until the last
// reader drops it, and the store only unmaps epochs at Close. A derived
// answer picked out of a paged relation carries the picked rows'
// encoded bytes as its base instead (encodedRows, see encoded.go).
type generation struct {
	base    rowBase // encoded immutable prefix; nil = fully in-memory
	rows    []Row   // all rows when base == nil, the tail beyond it otherwise
	version uint64

	// Derived caches, built lazily from rows under colMu. The rows are
	// immutable, so a build can never observe a concurrent mutation;
	// colMu only coordinates double-build avoidance and map access.
	colMu     sync.Mutex
	floatCols map[int]*floatColumn
	eqCols    map[int][]uint32
	groupCols map[string][]uint32
	mat       []Row // memoized base+tail materialization (base != nil only)

	// Value orders of numeric columns (see valueOrder): a copy-on-write
	// set, so a successor generation that keeps this one's row prefix
	// inherits it with one pointer copy. orderMu serializes its updates.
	orderMu sync.Mutex
	orders  atomic.Pointer[orderSet]

	// snap memoizes the frozen Snapshot view of this generation, so every
	// session pinning the same version shares one *Relation identity. It
	// is set once, by compare-and-swap: a mutex here would take the
	// generation, which every Insert allocates, past its size class.
	snap atomic.Pointer[Relation]

	// memo holds what is derived from exactly these rows and outlives a
	// statement (see memo.go); nil until the first entry. It takes one
	// pointer, keeping the generation inside its 144-byte size class.
	memo atomic.Pointer[memo]
}

// nrows returns the generation's total row count (base plus tail).
func (g *generation) nrows() int {
	if g.base != nil {
		return g.base.n() + len(g.rows)
	}
	return len(g.rows)
}

// row returns row i, decoding it out of its base — a page read through
// the buffer pool when the generation has a persisted prefix. A base read
// that fails (I/O error, checksum or format mismatch) panics with the
// *store.PageError — the row store is the authoritative copy, and the
// row APIs have no error result. Nothing contains that panic by itself:
// it reaches past shard-worker containment whenever rows materialize
// outside a worker (Pick at the end of a statement), so every entry
// point that reads rows defers RecoverPageError to turn it back into
// the statement's error.
func (g *generation) row(i int) Row {
	if g.base != nil {
		if bn := g.base.n(); i < bn {
			return g.base.row(i)
		}
		return g.rows[i-g.base.n()]
	}
	return g.rows[i]
}

// all returns the generation's full row slice. For in-memory
// generations it is the row slice itself; with a base (paged or
// encoded) the base is decoded once and memoized, so the
// interpreted full-scan paths (Select, Project, Clone, CSV export)
// keep working against persistent relations at one decode per
// generation. Callers must not modify the result.
func (g *generation) all() []Row {
	if g.base == nil {
		return g.rows
	}
	g.colMu.Lock()
	defer g.colMu.Unlock()
	if g.mat == nil {
		rows := make([]Row, 0, g.nrows())
		rows = g.base.appendAll(rows)
		g.mat = append(rows, g.rows...)
	}
	return g.mat
}

// Relation is an in-memory database set R(B1, …, Bm). Storage is
// generational copy-on-write: the current generation (rows plus derived
// column caches) is published through an atomic pointer, mutators build a
// successor generation and swap, and Snapshot pins the current one as an
// immutable view. Reads and snapshots are therefore safe against
// concurrent Inserts; see Snapshot for the isolation contract.
type Relation struct {
	name    string
	schema  *Schema
	derived bool
	frozen  bool

	mu  sync.Mutex // serializes mutators (Insert, SortBy)
	gen atomic.Pointer[generation]

	view atomic.Pointer[Sharded] // memoized OneShard view

	// persist, when non-nil, ties the relation to a shard directory of
	// a Store: Insert write-ahead-logs before publishing, SortBy
	// rewrites the epoch, and checkpoints fold the tail into a fresh
	// segment epoch. Nil for ordinary in-memory relations.
	persist *shardPersist
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	r := &Relation{name: name, schema: schema}
	r.gen.Store(&generation{})
	return r
}

// newDerived builds a query-intermediate relation directly over the given
// row slice (which the caller hands over).
func newDerived(name string, schema *Schema, rows []Row) *Relation {
	r := New(name, schema)
	r.derived = true
	r.gen.Load().rows = rows
	return r
}

// cur returns the current generation.
func (r *Relation) cur() *generation { return r.gen.Load() }

// setRows publishes a successor generation holding the given rows; bulk
// loaders (ShardRelation, Reshard) use it after routing rows.
func (r *Relation) setRows(rows []Row) {
	r.mu.Lock()
	g := r.cur()
	r.gen.Store(&generation{rows: rows, version: g.version + 1})
	r.mu.Unlock()
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the row count, card(R).
func (r *Relation) Len() int { return r.cur().nrows() }

// Version returns the relation's mutation counter: it increases on every
// row mutation (Insert, SortBy) and never otherwise; a checkpoint keeps
// it. Each version's derived state lives in its generation's memo
// (Memo).
func (r *Relation) Version() uint64 { return r.cur().version }

// Frozen reports whether the relation is an immutable Snapshot view;
// mutators refuse frozen relations.
func (r *Relation) Frozen() bool { return r.frozen }

// Snapshot pins the relation's current generation as an immutable view:
// a frozen *Relation sharing the pinned rows and derived column caches,
// valid indefinitely — concurrent Inserts on the live relation publish
// successor generations and never disturb a pinned one, so a query
// evaluated against the snapshot can never observe a torn mutation. The
// view is memoized per generation: every caller pinning the same version
// gets the same *Relation identity. Snapshot of a frozen view returns the
// view itself.
func (r *Relation) Snapshot() *Relation { return r.snapshotOf(r.cur()) }

// snapshotOf returns the memoized frozen view of generation g, which must
// be r's own.
func (r *Relation) snapshotOf(g *generation) *Relation {
	if s := g.snap.Load(); s != nil {
		return s
	}
	s := r
	if !r.frozen {
		s = &Relation{name: r.name, schema: r.schema, derived: r.derived, frozen: true}
		s.gen.Store(g)
	}
	if g.snap.CompareAndSwap(nil, s) {
		return s
	}
	return g.snap.Load()
}

// Stats returns the planner's statistics of the current generation,
// sampled over statsSample rows. They are analyzed from its frozen
// Snapshot view, so the analysis never straddles a concurrent Insert, and
// kept in its memo: a snapshot view and the live relation at one version
// share one analysis, an Insert's successor analyzes afresh, and a
// superseded generation's statistics are freed with it. A *Stats is never
// mutated once returned.
func (r *Relation) Stats() *Stats {
	g := r.cur()
	m := Memo{g}
	if s, ok := m.Get(statsKey); ok {
		return s.(*Stats)
	}
	s := AnalyzeSample(r.snapshotOf(g), statsSample)
	return m.Put(statsKey, s, s.bytes()).(*Stats)
}

// Ephemeral reports whether the relation is a derived query intermediate
// (built by Pick, Select, Where or a projection). The result and score
// caches skip ephemeral relations: their identity is fresh per query, so
// an entry could never be reused.
func (r *Relation) Ephemeral() bool { return r.derived }

// Row returns row i; callers must not modify it.
func (r *Relation) Row(i int) Row { return r.cur().row(i) }

// Rows returns all rows; callers must not modify the slice. For a
// persistent relation this materializes (and memoizes) the paged base
// through the buffer pool.
func (r *Relation) Rows() []Row { return r.cur().all() }

// ErrFrozen is returned by mutators invoked on a Snapshot view.
var ErrFrozen = fmt.Errorf("relation: snapshot views are read-only")

// Insert appends a row after type-checking every value against the
// schema, publishing a successor generation. Concurrent Inserts are safe
// (they serialize on the relation's writer lock), and concurrent readers
// or pinned Snapshots keep their generation untouched: the append either
// writes beyond every published length or relocates to a fresh array,
// so no published row is ever overwritten.
func (r *Relation) Insert(row Row) error {
	if r.frozen {
		return fmt.Errorf("relation %s: %w", r.name, ErrFrozen)
	}
	if len(row) != r.schema.Len() {
		return fmt.Errorf("relation %s: row arity %d does not match schema arity %d", r.name, len(row), r.schema.Len())
	}
	for i, v := range row {
		if err := checkValue(r.schema.Col(i).Type, v); err != nil {
			return fmt.Errorf("relation %s, column %s: %w", r.name, r.schema.Col(i).Name, err)
		}
	}
	r.mu.Lock()
	g := r.cur()
	stored := append(Row(nil), row...)
	if r.persist != nil {
		// Write-ahead: the row must be durable in the WAL before the
		// successor generation publishes. A failed append leaves both
		// the disk and the in-memory state at the old generation.
		if err := r.persist.logInsert(stored); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("relation %s: %w", r.name, err)
		}
	}
	ng := &generation{
		base:    g.base,
		rows:    append(g.rows, stored),
		version: g.version + 1,
	}
	ng.orders.Store(g.orders.Load()) // the rows before the append are unchanged
	if m := g.memo.Load(); m != nil {
		// r still reads g: the carriers see the predecessor's rows.
		if next := m.carry(r, rowTuple{schema: r.schema, row: stored}, g.nrows()); next != nil {
			ng.memo.Store(next)
		}
	}
	r.gen.Store(ng)
	if r.persist != nil {
		r.persist.maybeCheckpointLocked(r, ng)
	}
	r.mu.Unlock()
	return nil
}

// MustInsert is Insert that panics on error; for test fixtures.
func (r *Relation) MustInsert(rows ...Row) *Relation {
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			panic(err)
		}
	}
	return r
}

// Tuple returns the pref.Tuple view of row i.
func (r *Relation) Tuple(i int) pref.Tuple {
	return rowTuple{schema: r.schema, row: r.cur().row(i)}
}

// Tuples returns pref.Tuple views of every row.
func (r *Relation) Tuples() []pref.Tuple {
	rows := r.cur().all()
	out := make([]pref.Tuple, len(rows))
	for i, row := range rows {
		out[i] = rowTuple{schema: r.schema, row: row}
	}
	return out
}

// rowTuple adapts a schema-indexed row to the pref.Tuple interface.
type rowTuple struct {
	schema *Schema
	row    Row
}

// Get implements pref.Tuple.
func (t rowTuple) Get(attr string) (pref.Value, bool) {
	i, ok := t.schema.Index(attr)
	if !ok {
		return nil, false
	}
	return t.row[i], true
}

// TupleViews hands out tuple views with the positions of one term's
// attributes resolved up front: Get on those attributes scans a handful of
// names instead of paying the schema's map lookup per call — the
// difference inside an interpreted O(k²) merge. Other attributes still
// resolve through the schema.
type TupleViews struct {
	schema *Schema
	attrs  []string
	cols   []int // -1: not a column of the schema
}

// TupleViews resolves the named attributes against the schema once.
func (s *Schema) TupleViews(attrs []string) *TupleViews {
	v := &TupleViews{schema: s, attrs: attrs, cols: make([]int, len(attrs))}
	for k, a := range attrs {
		ci, ok := s.Index(a)
		if !ok {
			ci = -1
		}
		v.cols[k] = ci
	}
	return v
}

// Of returns the resolved tuple view of one row of the schema.
func (v *TupleViews) Of(row Row) pref.Tuple { return viewTuple{v, row} }

type viewTuple struct {
	v   *TupleViews
	row Row
}

// Get implements pref.Tuple.
func (t viewTuple) Get(attr string) (pref.Value, bool) {
	for k, a := range t.v.attrs {
		if a == attr {
			if ci := t.v.cols[k]; ci >= 0 {
				return t.row[ci], true
			}
			return nil, false
		}
	}
	return rowTuple{schema: t.v.schema, row: t.row}.Get(attr)
}

// FromRows builds a relation containing the given rows.
func FromRows(name string, schema *Schema, rows []Row) (*Relation, error) {
	r := New(name, schema)
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Select returns the rows satisfying the hard predicate, as a new
// relation. This is the interpreted selection path — one boxed tuple
// evaluation per row; predicates expressible as a filter.Pred tree should
// go through Where, which binds to the cached column arrays instead.
func (r *Relation) Select(pred func(pref.Tuple) bool) *Relation {
	rows := r.cur().all()
	var kept []Row
	for _, row := range rows {
		if pred(rowTuple{schema: r.schema, row: row}) {
			kept = append(kept, row)
		}
	}
	return newDerived(r.name, r.schema, kept)
}

// Where returns the rows satisfying the predicate tree, as a new relation.
// The tree is compiled against the relation's cached column arrays (see
// filter.Compile); WhereIndices returns the row positions instead of
// materializing.
func (r *Relation) Where(pred filter.Pred) *Relation {
	return r.Pick(r.WhereIndices(pred))
}

// WhereIndices returns the positions of the rows satisfying the predicate
// tree, in ascending order, through the compiled selection path. The
// slice is the caller's to own.
func (r *Relation) WhereIndices(pred filter.Pred) []int {
	return filter.Compile(pred, r).Indices()
}

// Pick returns a new relation containing the rows at the given indices.
// Out of a relation with a base (paged or encoded) the answer holds the
// rows' encoded bytes: each base row is one copy out of its page, each
// tail row is encoded once, and nothing is decoded until it is read.
func (r *Relation) Pick(indices []int) *Relation {
	g := r.cur()
	if g.base != nil {
		enc := newEncodedRows(r.schema.Len(), len(indices))
		for _, i := range indices {
			enc.add(g, i)
		}
		return newEncoded(r.name, r.schema, enc.done())
	}
	rows := make([]Row, 0, len(indices))
	for _, i := range indices {
		rows = append(rows, g.row(i))
	}
	return newDerived(r.name, r.schema, rows)
}

// Project returns π over the named attributes, preserving duplicates
// (bag semantics); use DistinctProject for set semantics.
func (r *Relation) Project(attrs []string) (*Relation, error) {
	cols := make([]Column, len(attrs))
	idx := make([]int, len(attrs))
	for k, a := range attrs {
		i, ok := r.schema.Index(a)
		if !ok {
			return nil, fmt.Errorf("relation %s: no column %q", r.name, a)
		}
		idx[k] = i
		cols[k] = r.schema.Col(i)
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	src := r.cur().all()
	rows := make([]Row, 0, len(src))
	for _, row := range src {
		proj := make(Row, len(idx))
		for k, i := range idx {
			proj[k] = row[i]
		}
		rows = append(rows, proj)
	}
	return newDerived(r.name, schema, rows), nil
}

// DistinctProject returns π over the named attributes with duplicates
// removed; its cardinality is card(π_A(R)), used by result-size metrics
// (Definition 18).
func (r *Relation) DistinctProject(attrs []string) (*Relation, error) {
	proj, err := r.Project(attrs)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, proj.Len())
	var rows []Row
	for i, row := range proj.cur().all() {
		k := pref.ProjectionKey(proj.Tuple(i), attrs)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		rows = append(rows, row)
	}
	return newDerived(r.name, proj.schema, rows), nil
}

// DistinctCount returns card(π_A(R)) without materializing the projection.
func (r *Relation) DistinctCount(attrs []string) int {
	rows := r.cur().all()
	seen := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		seen[pref.ProjectionKey(rowTuple{schema: r.schema, row: row}, attrs)] = struct{}{}
	}
	return len(seen)
}

// Groups partitions the relation's row indices by equal projections onto
// attrs, in first-seen order. It backs the groupby evaluation of Prop 10.
// Equality is the EqualValues sense, via the cached per-column equality
// codes (see GroupKey for the key encoding and the NaN policy).
func (r *Relation) Groups(attrs []string) [][]int {
	return r.GroupsOn(attrs, nil)
}

// GroupsOn partitions the candidate row positions by equal projections
// onto attrs, in first-seen order; idx == nil means every row. Group keys
// are composite equality codes built from the cached EqColumn arrays —
// no per-row string formatting — so an index-chained grouped query
// (WHERE bitmap → grouped BMO) partitions its candidate set without
// materializing a single tuple. See GroupKeys for the code semantics.
func (r *Relation) GroupsOn(attrs []string, idx []int) [][]int {
	g := r.cur()
	codes := g.groupKeys(r.schema, attrs)
	n := len(idx)
	if idx == nil {
		n = g.nrows()
	}
	at := func(k int) int {
		if idx == nil {
			return k
		}
		return idx[k]
	}
	first := make(map[uint32]int) // code → slot in out
	var out [][]int
	for k := 0; k < n; k++ {
		i := at(k)
		c := codes[i]
		slot, seen := first[c]
		if !seen {
			slot = len(out)
			first[c] = slot
			out = append(out, nil)
		}
		out[slot] = append(out[slot], i)
	}
	return out
}

// GroupKeys returns one composite equality code per row: rows carry equal
// codes exactly when their projections onto attrs are equal in the
// EqualValues sense (the group equivalence A↔ of Definition 16). Codes
// come from the cached EqColumn arrays, combined pairwise through a dense
// re-dictionary for multi-attribute groupings.
//
// NaN policy: each NaN occurrence forms its own equality class (EqColumn
// semantics — NaN ≠ NaN under EqualValues), so every NaN row is its own
// group. The previous ProjectionKey string encoding collapsed all NaNs of
// a column into one class; the code path is the documented semantics now,
// matching how the compiled preference layer treats NaN throughout.
// Attributes outside the schema fall back to a ValueKey dictionary over
// the tuple view (all rows lack the attribute and share one class), so
// grouping on a foreign attribute list stays well-defined. Composite
// codes are cached per attribute list on the relation's current
// generation — like EqColumn itself — so repeated grouped queries
// (however selective their candidate subsets) pay the full-relation
// dictionary pass once per epoch. The returned slice may alias a cached
// column; callers must not modify it.
func (r *Relation) GroupKeys(attrs []string) []uint32 {
	return r.cur().groupKeys(r.schema, attrs)
}

// groupKeys computes (or serves) the generation's composite group codes.
// The generation's rows are immutable, so the derivation can run outside
// the cache lock: a racing duplicate build produces identical codes and
// the second store is harmless.
func (g *generation) groupKeys(schema *Schema, attrs []string) []uint32 {
	if len(attrs) == 0 {
		return make([]uint32, g.nrows())
	}
	if len(attrs) == 1 {
		return g.attrCodes(schema, attrs[0])
	}
	var key strings.Builder
	for _, a := range attrs {
		pref.WriteKeyStr(&key, a)
	}
	g.colMu.Lock()
	if codes, hit := g.groupCols[key.String()]; hit {
		g.colMu.Unlock()
		return codes
	}
	g.colMu.Unlock()
	acc := g.attrCodes(schema, attrs[0])
	for _, a := range attrs[1:] {
		next := g.attrCodes(schema, a)
		pair := make(map[uint64]uint32, 16)
		combined := make([]uint32, g.nrows())
		n := uint32(1)
		for i := range combined {
			k := uint64(acc[i])<<32 | uint64(next[i])
			code, hit := pair[k]
			if !hit {
				code = n
				n++
				pair[k] = code
			}
			combined[i] = code
		}
		acc = combined
	}
	g.colMu.Lock()
	if g.groupCols == nil {
		g.groupCols = make(map[string][]uint32)
	}
	g.groupCols[key.String()] = acc
	g.colMu.Unlock()
	return acc
}

// attrCodes returns the equality-code column of one attribute: the cached
// EqColumn for schema columns, a ValueKey dictionary over the tuple views
// for anything else (code 0 = attribute absent, shared — absence on both
// sides counts as agreement, per EqualOn).
func (g *generation) attrCodes(schema *Schema, attr string) []uint32 {
	if codes, ok := g.eqColumn(schema, attr); ok {
		return codes
	}
	codes := make([]uint32, g.nrows())
	dict := make(map[string]uint32)
	next := uint32(1)
	for i, row := range g.all() {
		v, ok := rowTuple{schema: schema, row: row}.Get(attr)
		if !ok {
			codes[i] = 0
			continue
		}
		k := pref.ValueKey(v)
		code, hit := dict[k]
		if !hit {
			code = next
			next++
			dict[k] = code
		}
		codes[i] = code
	}
	return codes
}

// SortBy orders the relation's rows by the given less function over tuple
// views; the sort is stable. It publishes a successor generation over a
// copied row slice (rows themselves are shared, copy-on-write at the
// slice level), so pinned Snapshots keep their original order. SortBy
// panics on a frozen Snapshot view.
func (r *Relation) SortBy(less func(a, b pref.Tuple) bool) {
	if r.frozen {
		panic("relation: SortBy on a frozen snapshot view")
	}
	r.mu.Lock()
	g := r.cur()
	rows := slices.Clone(g.all())
	slices.SortStableFunc(rows, func(a, b Row) int {
		ta := rowTuple{schema: r.schema, row: a}
		tb := rowTuple{schema: r.schema, row: b}
		switch {
		case less(ta, tb):
			return -1
		case less(tb, ta):
			return 1
		}
		return 0
	})
	if r.persist != nil {
		// Crash-safe reorder: write the sorted rows as a fresh epoch and
		// publish it atomically (temp epoch + metadata rename). A crash
		// recovers to either the old or the new order, never a mix; a
		// plain write failure degrades to an in-memory-only sort that the
		// next successful checkpoint persists.
		if ng, err := r.persist.rewriteLocked(rows, g.version+1); err == nil {
			r.gen.Store(ng)
			r.mu.Unlock()
			return
		}
	}
	r.gen.Store(&generation{rows: rows, version: g.version + 1})
	r.mu.Unlock()
}

// Clone returns a deep copy of the relation; the copy keeps the
// original's ephemerality but is never frozen (it shares nothing with
// the original, so it is freely mutable).
func (r *Relation) Clone() *Relation {
	src := r.cur().all()
	rows := make([]Row, len(src))
	for i, row := range src {
		rows[i] = append(Row(nil), row...)
	}
	out := New(r.name, r.schema)
	out.derived = r.derived
	out.gen.Load().rows = rows
	return out
}

// String renders the relation as an aligned text table.
func (r *Relation) String() string {
	names := r.schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	rows := r.cur().all()
	cells := make([][]string, len(rows))
	for i, row := range rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := pref.FormatValue(v)
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for pad := len(v); pad < widths[j]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	seps := make([]string, len(names))
	for j := range seps {
		seps[j] = strings.Repeat("-", widths[j])
	}
	writeRow(seps)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
