package relation

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/pref"
	"repro/internal/relation/store"
)

// Persistent catalogs: a Store roots a directory of tables, each table
// a directory of shard directories, each shard a checkpointed segment
// epoch plus a write-ahead log of the rows appended since. The layout
// is
//
//	<dir>/catalog.json              table manifest (atomic swap)
//	<dir>/<table>/s<k>/meta.json    shard state: current epoch id (atomic swap)
//	<dir>/<table>/s<k>/ep<E>/       immutable segment epoch E (see store.WriteEpoch)
//	<dir>/<table>/s<k>/wal-<E>.log  rows appended on top of epoch E
//
// The recovery invariant: a shard's durable content is exactly its
// current epoch followed by the intact prefix of the epoch's WAL.
// Checkpoints write epoch E+1 (folding the WAL tail in), swap
// meta.json, then delete wal-E and ep<E> — every crash window lands on
// one side of the metadata rename, so cold start always reopens a
// consistent generation. DDL (create/drop/import) swaps catalog.json
// the same way.
//
// Runtime model: the current epoch's column segments are mmap'd and
// served zero-copy into the compiled evaluator; row pages are read on
// demand into one store-wide buffer pool, which keeps them as verified
// encoded bytes, and a row read decodes just its row out of the page.
// A page that fails to read or verify fails the statement reading it
// (RecoverPageError), not the process. Superseded epochs stay
// mapped until Close so pinned snapshots (and cached bound forms that
// alias segment memory) never dangle — an unlinked, clean, file-backed
// mapping costs address space, not RAM, and the kernel reclaims its
// pages under pressure.

// StoreOptions tunes a persistent catalog.
type StoreOptions struct {
	// PoolBytes is the buffer-pool budget for resident row pages,
	// counted as the heap they hold: each page's encoded bytes plus its
	// row-offset table (rows are decoded per read, outside the pool).
	// Default 64 MiB. Column segments are mmap'd and do not count
	// against it — the kernel page cache manages them.
	PoolBytes int64
	// PageBytes is the target encoded size of one row page. Default 64 KiB.
	PageBytes int
	// SyncWAL fsyncs the WAL after every append (durability over
	// throughput). Default off: crash durability is then bounded by the
	// OS flush interval, torn tails are discarded either way.
	SyncWAL bool
	// NoMMap decodes column segments into the heap instead of mapping
	// them; the portable mode non-Linux hosts always use.
	NoMMap bool
	// AutoCheckpoint folds the WAL tail into a fresh epoch once it
	// reaches this many rows (0 = checkpoint only on demand/Close).
	AutoCheckpoint int
}

// withDefaults fills unset options.
func (o StoreOptions) withDefaults() StoreOptions {
	if o.PoolBytes <= 0 {
		o.PoolBytes = 64 << 20
	}
	if o.PageBytes <= 0 {
		o.PageBytes = 64 << 10
	}
	return o
}

// Store is a persistent catalog rooted at one directory: it opens,
// creates, checkpoints and drops disk-backed tables (flat or sharded)
// and owns the buffer pool and segment epochs they read through.
type Store struct {
	dir  string
	opts StoreOptions
	pool *store.Pool

	mu     sync.Mutex
	tables map[string]Table
	man    manifest
	closed bool

	epochMu sync.Mutex
	epochs  []*store.Epoch
}

// manifest is the catalog.json document.
type manifest struct {
	Tables []manifestTable `json:"tables"`
}

// manifestTable describes one persistent table.
type manifestTable struct {
	Name   string        `json:"name"`
	Cols   []manifestCol `json:"cols"`
	Shards int           `json:"shards"` // 0 = flat
	Part   *manifestPart `json:"part,omitempty"`
}

// manifestCol is one schema column.
type manifestCol struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// manifestPart serializes the partitioner of a sharded table.
type manifestPart struct {
	Kind   string    `json:"kind"` // "hash" | "range"
	Attr   string    `json:"attr"`
	Bounds []float64 `json:"bounds,omitempty"`
}

// shardPersist ties one *Relation to its shard directory.
type shardPersist struct {
	st    *Store
	dir   string
	label string // "table/s0", for stats
	epoch uint64
	wal   *store.WAL
}

// pagedBase adapts one opened epoch to the generation's base interface:
// row reads through the store's pool, column views straight off the
// epoch.
type pagedBase struct {
	ep   *store.Epoch
	pool *store.Pool
}

func (b *pagedBase) n() int { return b.ep.N() }

// RecoverPageError, deferred directly by a function that reads rows,
// turns the panic of a failed paged row read — a *store.PageError,
// naming the epoch and page — into that function's error in *err, so a
// bad page fails the statement that touched it instead of the process.
// Any other panic keeps unwinding.
func RecoverPageError(err *error) {
	v := recover()
	if v == nil {
		return
	}
	pe, ok := v.(*store.PageError)
	if !ok {
		panic(v)
	}
	*err = pe
}

// row and appendAll panic with the store's error (a *store.PageError
// for a page that fails to read or verify; see RecoverPageError).
func (b *pagedBase) row(i int) Row {
	r, err := b.ep.Row(i, b.pool)
	if err != nil {
		panic(err)
	}
	return Row(r)
}

func (b *pagedBase) appendAll(dst []Row) []Row {
	raw, err := b.ep.AppendAllRows(nil, b.pool)
	if err != nil {
		panic(err)
	}
	for _, r := range raw {
		dst = append(dst, Row(r))
	}
	return dst
}

func (b *pagedBase) floats(ci int) ([]float64, []bool, bool) { return b.ep.Floats(ci) }
func (b *pagedBase) eq(ci int) ([]uint32, bool)              { return b.ep.Eq(ci) }

// typeFromName parses a manifest column type.
func typeFromName(s string) (Type, error) {
	for _, t := range []Type{String, Int, Float, Bool, Time} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("relation: unknown column type %q in catalog", s)
}

// OpenStore opens (creating if absent) the persistent catalog rooted
// at dir and recovers every table in it: each shard's current epoch is
// opened, its WAL replayed into the in-memory tail, and any torn WAL
// tail or orphaned temp/superseded files from a crashed checkpoint are
// cleaned up.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:    dir,
		opts:   opts,
		pool:   store.NewPool(opts.PoolBytes),
		tables: make(map[string]Table),
	}
	doc, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return nil, err
	}
	if err := json.Unmarshal(doc, &st.man); err != nil {
		return nil, fmt.Errorf("relation: store %s: bad catalog: %w", dir, err)
	}
	for _, mt := range st.man.Tables {
		t, err := st.openTable(mt)
		if err != nil {
			return nil, fmt.Errorf("relation: store %s: table %s: %w", dir, mt.Name, err)
		}
		st.tables[mt.Name] = t
	}
	return st, nil
}

// openTable recovers one manifest table.
func (st *Store) openTable(mt manifestTable) (Table, error) {
	cols := make([]Column, len(mt.Cols))
	for i, c := range mt.Cols {
		t, err := typeFromName(c.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: c.Name, Type: t}
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	if mt.Shards == 0 {
		return st.openShard(mt.Name, filepath.Join(st.dir, mt.Name, "s0"), mt.Name+"/s0", schema)
	}
	part, err := partFromManifest(mt.Part)
	if err != nil {
		return nil, err
	}
	shards := make([]*Relation, mt.Shards)
	for i := range shards {
		sdir := filepath.Join(st.dir, mt.Name, fmt.Sprintf("s%d", i))
		shards[i], err = st.openShard(fmt.Sprintf("%s#%d", mt.Name, i), sdir, fmt.Sprintf("%s/s%d", mt.Name, i), schema)
		if err != nil {
			return nil, err
		}
	}
	s := &Sharded{name: mt.Name, schema: schema}
	s.state.Store(&shardState{part: part, shards: shards})
	return s, nil
}

// partFromManifest rebuilds a serialized partitioner.
func partFromManifest(p *manifestPart) (Partitioner, error) {
	if p == nil {
		return nil, fmt.Errorf("sharded table without partitioner in catalog")
	}
	switch p.Kind {
	case "hash":
		return ByHash(p.Attr), nil
	case "range":
		return ByRange(p.Attr, p.Bounds...), nil
	}
	return nil, fmt.Errorf("unknown partitioner kind %q in catalog", p.Kind)
}

// partToManifest serializes a partitioner; only the built-in hash and
// range partitioners are persistable.
func partToManifest(p Partitioner) (*manifestPart, error) {
	switch t := p.(type) {
	case hashPart:
		return &manifestPart{Kind: "hash", Attr: t.attr}, nil
	case rangePart:
		return &manifestPart{Kind: "range", Attr: t.attr, Bounds: t.bounds}, nil
	}
	return nil, fmt.Errorf("relation: partitioner %v is not persistable (use ByHash or ByRange)", p)
}

// shardMeta is the per-shard meta.json document.
type shardMeta struct {
	Epoch uint64 `json:"epoch"`
}

// openShard recovers one shard directory: current epoch + WAL replay.
func (st *Store) openShard(name, dir, label string, schema *Schema) (*Relation, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var meta shardMeta
	if doc, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
		if err := json.Unmarshal(doc, &meta); err != nil {
			return nil, fmt.Errorf("shard %s: bad meta: %w", dir, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	sp := &shardPersist{st: st, dir: dir, label: label, epoch: meta.Epoch}

	var base *pagedBase
	if meta.Epoch > 0 {
		ep, err := store.OpenEpoch(filepath.Join(dir, fmt.Sprintf("ep%d", meta.Epoch)), !st.opts.NoMMap)
		if err != nil {
			return nil, fmt.Errorf("shard %s: epoch %d: %w", dir, meta.Epoch, err)
		}
		if ep.Arity() != schema.Len() {
			ep.Close()
			return nil, fmt.Errorf("shard %s: epoch arity %d does not match schema arity %d", dir, ep.Arity(), schema.Len())
		}
		st.trackEpoch(ep)
		base = &pagedBase{ep: ep, pool: st.pool}
	}

	wal, recs, err := store.OpenWAL(sp.walPath(meta.Epoch), st.opts.SyncWAL)
	if err != nil {
		return nil, fmt.Errorf("shard %s: wal: %w", dir, err)
	}
	sp.wal = wal
	tail := make([]Row, 0, len(recs))
	for i, rec := range recs {
		row, rest, err := store.ReadRow(rec, schema.Len())
		if err != nil || len(rest) != 0 {
			wal.Close()
			return nil, fmt.Errorf("shard %s: wal record %d corrupt: %v", dir, i, err)
		}
		tail = append(tail, Row(row))
	}
	sp.cleanupStale()

	r := New(name, schema)
	r.persist = sp
	r.gen.Store(&generation{base: base, rows: tail})
	return r, nil
}

// walPath names the WAL that accompanies epoch e.
func (sp *shardPersist) walPath(e uint64) string {
	return filepath.Join(sp.dir, fmt.Sprintf("wal-%d.log", e))
}

// cleanupStale removes epoch directories, temp files and WALs other
// than the current ones — the leftovers of a checkpoint that crashed
// after its metadata swap but before its deletes.
func (sp *shardPersist) cleanupStale() {
	entries, err := os.ReadDir(sp.dir)
	if err != nil {
		return
	}
	curEp := fmt.Sprintf("ep%d", sp.epoch)
	curWAL := fmt.Sprintf("wal-%d.log", sp.epoch)
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == "meta.json" || name == curEp || name == curWAL:
		case strings.HasPrefix(name, "ep") || strings.HasPrefix(name, "wal-") || strings.HasSuffix(name, ".tmp"):
			os.RemoveAll(filepath.Join(sp.dir, name))
		}
	}
}

// logInsert write-ahead-logs one row; called under the relation's
// writer lock.
func (sp *shardPersist) logInsert(row Row) error {
	buf, err := store.AppendRow(nil, row)
	if err != nil {
		return err
	}
	return sp.wal.Append(buf)
}

// maybeCheckpointLocked folds the tail into a fresh epoch if it has
// grown past the auto-checkpoint threshold; called under the writer
// lock with g the just-published generation. Checkpoint failures are
// deliberately swallowed here: the WAL already holds the rows, so
// durability is unaffected and the next threshold crossing retries.
func (sp *shardPersist) maybeCheckpointLocked(r *Relation, g *generation) {
	if n := sp.st.opts.AutoCheckpoint; n > 0 && len(g.rows) >= n {
		sp.checkpointLocked(r, g)
	}
}

// checkpointLocked writes the generation's full contents as epoch E+1,
// swaps the shard metadata, rotates the WAL and publishes a successor
// generation over the new base. The version is NOT bumped: the logical
// contents are unchanged, so cached bound forms and memoized maxima
// keyed by (relation, version) stay warm and correct — they alias the
// superseded generation's arrays, which remain valid. A base page that
// fails to read fails the checkpoint, not the writer. Caller holds
// r.mu.
func (sp *shardPersist) checkpointLocked(r *Relation, g *generation) (err error) {
	defer RecoverPageError(&err)
	ng, err := sp.rewriteLocked(g.all(), g.version)
	if err != nil {
		return err
	}
	ng.orders.Store(g.orders.Load()) // same rows at the same positions
	r.gen.Store(ng)
	return nil
}

// rewriteLocked materializes rows as the shard's next epoch and
// returns the generation serving it. On any error before the metadata
// swap the shard's durable state is untouched. Caller holds r.mu.
func (sp *shardPersist) rewriteLocked(rows []Row, version uint64) (*generation, error) {
	st := sp.st
	next := sp.epoch + 1
	epDir := filepath.Join(sp.dir, fmt.Sprintf("ep%d", next))
	os.RemoveAll(epDir) // stale leftover from a crashed checkpoint

	schemaLen := 0
	if len(rows) > 0 {
		schemaLen = len(rows[0])
	}
	// Derive the columnar segments exactly as the in-memory build
	// would, so the persisted images are bit-for-bit the arrays the
	// compiled evaluator already binds against.
	floats := make(map[int]store.FloatSeg)
	eqs := make(map[int][]uint32)
	for ci := 0; ci < schemaLen; ci++ {
		col := buildFloatColumn(rows, ci)
		any := false
		for _, on := range col.onScale {
			if on {
				any = true
				break
			}
		}
		// Persist the float image for every column that could serve a
		// FloatColumn: cheap (8+1 bytes/row) and avoids re-deriving
		// schema knowledge here. All-off-scale columns skip the files.
		if any {
			floats[ci] = store.FloatSeg{Vals: col.vals, Mask: col.onScale}
		}
		eqs[ci] = buildEqColumn(rows, ci)
	}
	err := store.WriteEpoch(epDir, schemaLen, len(rows),
		func(i int) []pref.Value { return rows[i] }, floats, eqs, st.opts.PageBytes)
	if err != nil {
		os.RemoveAll(epDir)
		return nil, err
	}
	ep, err := store.OpenEpoch(epDir, !st.opts.NoMMap)
	if err != nil {
		os.RemoveAll(epDir)
		return nil, err
	}

	// Fresh (empty) WAL for the new epoch, created before the swap so
	// recovery never finds metadata pointing at a missing log.
	newWAL, _, err := store.OpenWAL(sp.walPath(next), st.opts.SyncWAL)
	if err != nil {
		ep.Close()
		os.RemoveAll(epDir)
		return nil, err
	}
	if err := sp.swapMeta(shardMeta{Epoch: next}); err != nil {
		newWAL.Close()
		os.Remove(sp.walPath(next))
		ep.Close()
		os.RemoveAll(epDir)
		return nil, err
	}

	// Point of no return: the swap published epoch E+1. Retire the old
	// WAL and epoch directory (pinned snapshots keep reading the old
	// epoch through its open mapping; the files' space frees when the
	// store closes).
	oldWAL, oldEpoch := sp.wal, sp.epoch
	sp.wal, sp.epoch = newWAL, next
	oldWAL.Close()
	os.Remove(sp.walPath(oldEpoch))
	if oldEpoch > 0 {
		os.RemoveAll(filepath.Join(sp.dir, fmt.Sprintf("ep%d", oldEpoch)))
	}
	st.trackEpoch(ep)

	return &generation{
		base:    &pagedBase{ep: ep, pool: st.pool},
		version: version,
	}, nil
}

// swapMeta atomically replaces the shard's meta.json.
func (sp *shardPersist) swapMeta(m shardMeta) error {
	doc, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(sp.dir, "meta.json.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(sp.dir, "meta.json")); err != nil {
		return err
	}
	d, err := os.Open(sp.dir)
	if err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// trackEpoch records an opened epoch for Close-time release.
func (st *Store) trackEpoch(ep *store.Epoch) {
	st.epochMu.Lock()
	st.epochs = append(st.epochs, ep)
	st.epochMu.Unlock()
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Table returns the named table, if present.
func (st *Store) Table(name string) (Table, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	t, ok := st.tables[name]
	return t, ok
}

// Tables returns a copy of the catalog's table map; prefserve hands it
// to psql.Catalog.
func (st *Store) Tables() map[string]Table {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]Table, len(st.tables))
	for k, v := range st.tables {
		out[k] = v
	}
	return out
}

// CreateTable creates an empty persistent flat table.
func (st *Store) CreateTable(name string, schema *Schema) (*Relation, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.checkCreate(name); err != nil {
		return nil, err
	}
	r, err := st.openShard(name, filepath.Join(st.dir, name, "s0"), name+"/s0", schema)
	if err != nil {
		return nil, err
	}
	mt := manifestTable{Name: name, Cols: colsToManifest(schema)}
	if err := st.addManifestLocked(mt); err != nil {
		return nil, err
	}
	st.tables[name] = r
	return r, nil
}

// CreateSharded creates an empty persistent sharded table. Only the
// built-in hash and range partitioners are persistable.
func (st *Store) CreateSharded(name string, schema *Schema, nShards int, part Partitioner) (*Sharded, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.checkCreate(name); err != nil {
		return nil, err
	}
	mp, err := partToManifest(part)
	if err != nil {
		return nil, err
	}
	if nShards < 1 || nShards > maxShards {
		return nil, fmt.Errorf("relation %s: shard count %d outside [1, %d]", name, nShards, maxShards)
	}
	if c, ok := part.(shardCountChecker); ok {
		if err := c.checkShards(nShards); err != nil {
			return nil, fmt.Errorf("relation %s: %w", name, err)
		}
	}
	shards := make([]*Relation, nShards)
	for i := range shards {
		shards[i], err = st.openShard(fmt.Sprintf("%s#%d", name, i),
			filepath.Join(st.dir, name, fmt.Sprintf("s%d", i)),
			fmt.Sprintf("%s/s%d", name, i), schema)
		if err != nil {
			return nil, err
		}
	}
	s := &Sharded{name: name, schema: schema}
	s.state.Store(&shardState{part: part, shards: shards})
	mt := manifestTable{Name: name, Cols: colsToManifest(schema), Shards: nShards, Part: mp}
	if err := st.addManifestLocked(mt); err != nil {
		return nil, err
	}
	st.tables[name] = s
	return s, nil
}

// ImportTable persists an existing in-memory table (flat or sharded)
// into the store under its own name, bulk-writing one epoch per shard,
// and returns the new persistent table. The source is left untouched.
func (st *Store) ImportTable(t Table) (Table, error) {
	switch src := t.(type) {
	case *Relation:
		r, err := st.CreateTable(src.Name(), src.Schema())
		if err != nil {
			return nil, err
		}
		if err := r.persist.bulkLoad(r, src.Rows()); err != nil {
			return nil, err
		}
		return r, nil
	case *Sharded:
		sst := src.state.Load()
		s, err := st.CreateSharded(src.Name(), src.Schema(), len(sst.shards), sst.part)
		if err != nil {
			return nil, err
		}
		for i, sh := range s.state.Load().shards {
			if err := sh.persist.bulkLoad(sh, sst.shards[i].Rows()); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	return nil, fmt.Errorf("relation: cannot import table %s (%T)", t.Name(), t)
}

// bulkLoad writes rows straight to a fresh epoch, bypassing the WAL.
func (sp *shardPersist) bulkLoad(r *Relation, rows []Row) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ng, err := sp.rewriteLocked(rows, r.cur().version+1)
	if err != nil {
		return err
	}
	r.gen.Store(ng)
	return nil
}

// checkCreate validates a new table name; caller holds st.mu.
func (st *Store) checkCreate(name string) error {
	if st.closed {
		return fmt.Errorf("relation: store %s is closed", st.dir)
	}
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("relation: invalid table name %q", name)
	}
	if _, dup := st.tables[name]; dup {
		return fmt.Errorf("relation: table %q already exists in store", name)
	}
	return nil
}

// colsToManifest serializes a schema.
func colsToManifest(s *Schema) []manifestCol {
	out := make([]manifestCol, s.Len())
	for i, c := range s.Columns() {
		out[i] = manifestCol{Name: c.Name, Type: c.Type.String()}
	}
	return out
}

// addManifestLocked appends a table to the manifest and swaps
// catalog.json; caller holds st.mu.
func (st *Store) addManifestLocked(mt manifestTable) error {
	st.man.Tables = append(st.man.Tables, mt)
	if err := st.writeCatalogLocked(); err != nil {
		st.man.Tables = st.man.Tables[:len(st.man.Tables)-1]
		return err
	}
	return nil
}

// writeCatalogLocked atomically replaces catalog.json.
func (st *Store) writeCatalogLocked() error {
	doc, err := json.MarshalIndent(&st.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(st.dir, "catalog.json.tmp")
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, "catalog.json")); err != nil {
		return err
	}
	if d, err := os.Open(st.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Drop removes a table from the catalog and deletes its directory.
// Cache eviction for the dropped identities is the caller's concern,
// exactly as with psql.Catalog.Drop.
func (st *Store) Drop(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.tables[name]; !ok {
		return fmt.Errorf("relation: store has no table %q", name)
	}
	kept := st.man.Tables[:0]
	for _, mt := range st.man.Tables {
		if mt.Name != name {
			kept = append(kept, mt)
		}
	}
	st.man.Tables = kept
	if err := st.writeCatalogLocked(); err != nil {
		return err
	}
	delete(st.tables, name)
	os.RemoveAll(filepath.Join(st.dir, name))
	return nil
}

// persistentRelations lists every shard relation the store owns.
func (st *Store) persistentRelations() []*Relation {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []*Relation
	for _, t := range st.tables {
		switch v := t.(type) {
		case *Relation:
			out = append(out, v)
		case *Sharded:
			out = append(out, v.state.Load().shards...)
		}
	}
	return out
}

// Checkpoint folds every shard's WAL tail into a fresh segment epoch;
// shards with empty tails are untouched. It is what Close runs, and
// what a server drain calls to flush before shutdown.
func (st *Store) Checkpoint() error {
	var first error
	for _, r := range st.persistentRelations() {
		r.mu.Lock()
		g := r.cur()
		if len(g.rows) > 0 {
			if err := r.persist.checkpointLocked(r, g); err != nil && first == nil {
				first = err
			}
		}
		r.mu.Unlock()
	}
	return first
}

// Close checkpoints every table, closes the WALs and releases every
// epoch mapping. The store and its tables must not be used afterwards;
// readers still holding pinned snapshots must be drained first (the
// server's shutdown path does exactly that).
func (st *Store) Close() error {
	err := st.Checkpoint()
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	for _, r := range st.persistentRelations() {
		r.mu.Lock()
		if r.persist.wal != nil {
			r.persist.wal.Close()
		}
		r.mu.Unlock()
	}
	st.epochMu.Lock()
	for _, ep := range st.epochs {
		st.pool.InvalidateOwner(ep)
		if cerr := ep.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	st.epochs = nil
	st.epochMu.Unlock()
	return err
}

// ShardStat is one shard's persistence footprint.
type ShardStat struct {
	Shard        string // "table/s0"
	SegmentBytes int64
	WALBytes     int64
	TailRows     int
}

// StoreStats is a point-in-time view of a store's paging behavior.
type StoreStats struct {
	Pool   store.PoolStats
	Shards []ShardStat
}

// WALBytes sums the live WAL sizes across shards.
func (s StoreStats) WALBytes() int64 {
	var n int64
	for _, sh := range s.Shards {
		n += sh.WALBytes
	}
	return n
}

// SegmentBytes sums the current-epoch segment sizes across shards.
func (s StoreStats) SegmentBytes() int64 {
	var n int64
	for _, sh := range s.Shards {
		n += sh.SegmentBytes
	}
	return n
}

// Stats reports buffer-pool counters plus per-shard WAL and segment
// sizes — the numbers prefctl's \stats renders.
func (st *Store) Stats() StoreStats {
	out := StoreStats{Pool: st.pool.Stats()}
	for _, r := range st.persistentRelations() {
		r.mu.Lock()
		sp := r.persist
		stat := ShardStat{Shard: sp.label, TailRows: len(r.cur().rows)}
		if sp.wal != nil {
			stat.WALBytes = sp.wal.Size()
		}
		if base := r.cur().base; base != nil {
			stat.SegmentBytes = base.ep.SegmentBytes()
		}
		r.mu.Unlock()
		out.Shards = append(out.Shards, stat)
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Shard < out.Shards[j].Shard })
	return out
}

// Pool exposes the store's buffer pool (tests and stats use it).
func (st *Store) Pool() *store.Pool { return st.pool }
