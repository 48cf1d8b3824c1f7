package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/filter"
	"repro/internal/pref"
)

// Columnar storage mode: alongside the row store, each storage generation
// lazily maintains typed column arrays (float64 vectors with on-scale
// masks for the linearly ordered column types). The compiled preference
// evaluator (pref.Compile) reads them through the pref.FloatColumner
// interface, so materializing a score dimension is a flat vector copy
// instead of a per-row schema lookup, interface unboxing and type switch.
// The arrays are derived data owned by their generation: a row mutation
// (Insert, SortBy) publishes a fresh generation with empty caches (an
// Insert generation keeps only its predecessor's value orders, see
// ValueOrder), while
// the superseded generation — and every array built from it — stays
// valid for pinned Snapshot readers until the garbage collector retires
// the epoch. FromColumns ingests column-major data and builds both
// representations in one pass.

// floatColumn is one column mapped to the toScale linear scale.
type floatColumn struct {
	vals    []float64
	onScale []bool
}

// FloatColumn returns the named column's values mapped to the linear scale
// preference scoring uses (numerics as themselves, TIME as Unix seconds)
// together with an on-scale mask (false for NULLs and off-scale values).
// It reports ok=false for columns that are not linearly ordered (STRING,
// BOOL) and for unknown names. The returned slices are shared and cached
// on the current generation; callers must not modify them. It implements
// pref.FloatColumner.
func (r *Relation) FloatColumn(name string) (vals []float64, onScale []bool, ok bool) {
	return r.cur().floatColumn(r.schema, name)
}

// floatColumn serves (or builds) the generation's typed array of one
// column.
func (g *generation) floatColumn(schema *Schema, name string) (vals []float64, onScale []bool, ok bool) {
	ci, ok := schema.Index(name)
	if !ok {
		return nil, nil, false
	}
	switch schema.Col(ci).Type {
	case Int, Float, Time:
	default:
		return nil, nil, false
	}
	g.colMu.Lock()
	col, hit := g.floatCols[ci]
	g.colMu.Unlock()
	if !hit {
		// Build outside colMu: the paged paths re-enter the lock via
		// all(), and a racing duplicate build is identical and harmless
		// (the first store wins).
		col = g.deriveFloatColumn(ci)
		g.colMu.Lock()
		if g.floatCols == nil {
			g.floatCols = make(map[int]*floatColumn, schema.Len())
		}
		if exist, ok := g.floatCols[ci]; ok {
			col = exist
		} else {
			g.floatCols[ci] = col
		}
		g.colMu.Unlock()
	}
	return col.vals, col.onScale, true
}

// deriveFloatColumn produces one column's typed array for this
// generation. A paged generation with no in-memory tail serves the
// epoch's mmap'd segment directly — zero copies, the kernel pages the
// bytes in on first touch — which is the property that keeps the
// compiled hot path at in-memory speed on beyond-RAM tables. With a
// tail, the segment prefix is copied once and extended; without a
// base, this is the classic in-memory build.
func (g *generation) deriveFloatColumn(ci int) *floatColumn {
	if g.base == nil {
		return buildFloatColumn(g.rows, ci)
	}
	vals, mask, ok := g.base.floats(ci)
	if !ok {
		return buildFloatColumn(g.all(), ci)
	}
	if len(g.rows) == 0 {
		return &floatColumn{vals: vals, onScale: mask}
	}
	tail := buildFloatColumn(g.rows, ci)
	n := g.nrows()
	col := &floatColumn{vals: make([]float64, n), onScale: make([]bool, n)}
	bn := copy(col.vals, vals)
	copy(col.onScale, mask)
	copy(col.vals[bn:], tail.vals)
	copy(col.onScale[bn:], tail.onScale)
	return col
}

// buildFloatColumn materializes one column: the only place a per-row type
// switch runs, once per (generation, column) instead of per comparison.
func buildFloatColumn(rows []Row, ci int) *floatColumn {
	col := &floatColumn{
		vals:    make([]float64, len(rows)),
		onScale: make([]bool, len(rows)),
	}
	for i, row := range rows {
		v := row[ci]
		if n, ok := pref.Numeric(v); ok {
			col.vals[i], col.onScale[i] = n, true
			continue
		}
		if t, ok := v.(time.Time); ok {
			col.vals[i], col.onScale[i] = float64(t.Unix()), true
		}
	}
	return col
}

// EqColumn returns equality codes for the named column: rows carry equal
// codes exactly when their values are equal in the pref.EqualValues sense
// (numeric cross-type equality, time instants, NULL equal to NULL only).
// Codes start at 1; each NaN is its own class (NaN ≠ NaN). The slice is
// cached on the current generation, so repeated compilations against an
// unchanged relation pay the dictionary pass once. It implements
// pref.EqColumner.
func (r *Relation) EqColumn(name string) ([]uint32, bool) {
	return r.cur().eqColumn(r.schema, name)
}

// eqColumn serves (or builds) the generation's equality codes of one
// column.
func (g *generation) eqColumn(schema *Schema, name string) ([]uint32, bool) {
	ci, ok := schema.Index(name)
	if !ok {
		return nil, false
	}
	g.colMu.Lock()
	codes, hit := g.eqCols[ci]
	g.colMu.Unlock()
	if !hit {
		codes = g.deriveEqColumn(ci)
		g.colMu.Lock()
		if g.eqCols == nil {
			g.eqCols = make(map[int][]uint32, schema.Len())
		}
		if exist, ok := g.eqCols[ci]; ok {
			codes = exist
		} else {
			g.eqCols[ci] = codes
		}
		g.colMu.Unlock()
	}
	return codes, true
}

// deriveEqColumn produces one column's equality codes. A paged
// generation with no tail serves the epoch's persisted dictionary
// image directly (codes are opaque — only equality between them
// matters, so the checkpointed assignment is as good as a fresh one);
// any tail forces a full rebuild over the materialized rows, which the
// next checkpoint amortizes away again.
func (g *generation) deriveEqColumn(ci int) []uint32 {
	if g.base == nil {
		return buildEqColumn(g.rows, ci)
	}
	if codes, ok := g.base.eq(ci); ok && len(g.rows) == 0 {
		return codes
	}
	return buildEqColumn(g.all(), ci)
}

// buildEqColumn dictionary-codes one column with type-native keys — no
// canonical string formatting on the hot path.
func buildEqColumn(rows []Row, ci int) []uint32 {
	codes := make([]uint32, len(rows))
	next := uint32(1)
	nilCode := uint32(0)
	byFloat := make(map[float64]uint32)
	byString := make(map[string]uint32)
	byInstant := make(map[int64]uint32)
	for i, row := range rows {
		v := row[ci]
		if v == nil {
			if nilCode == 0 {
				nilCode = next
				next++
			}
			codes[i] = nilCode
			continue
		}
		if n, ok := pref.Numeric(v); ok {
			code, hit := byFloat[n]
			if !hit { // every NaN misses: each forms its own class
				code = next
				next++
				byFloat[n] = code
			}
			codes[i] = code
			continue
		}
		switch t := v.(type) {
		case string:
			code, hit := byString[t]
			if !hit {
				code = next
				next++
				byString[t] = code
			}
			codes[i] = code
		case bool:
			key := "f"
			if t {
				key = "t"
			}
			code, hit := byString[key]
			if !hit {
				code = next
				next++
				byString[key] = code
			}
			codes[i] = code
		case time.Time:
			key := t.UnixNano()
			code, hit := byInstant[key]
			if !hit {
				code = next
				next++
				byInstant[key] = code
			}
			codes[i] = code
		}
	}
	return codes
}

// NumericColumn is FloatColumn restricted to the genuinely numeric column
// types (INT, FLOAT): ok=false for TIME, whose float image is truncated to
// seconds and would change sub-second comparison results. The image of
// such a column decides value equality (pref.EqualValues compares exactly
// it), so the compiled hard-selection layer binds comparison predicates
// through it and the preference bind ties rows on it without building a
// dictionary; it implements pref.NumericColumner.
func (r *Relation) NumericColumn(name string) (vals []float64, onScale []bool, ok bool) {
	if ci, ok := r.schema.Index(name); !ok || !numericType(r.schema.Col(ci).Type) {
		return nil, nil, false
	}
	return r.FloatColumn(name)
}

// numericType reports the column types whose float image decides value
// equality.
func numericType(t Type) bool { return t == Int || t == Float }

// ValueOrder is NumericColumn plus the column's value order on the current
// generation (see filter.ValueOrder), all from that one generation. The
// order is kept for what is reused: the first request for a column marks
// it and returns no order, the second builds it — 4 bytes per row — and
// later ones share it. A generation published by Insert (or a checkpoint)
// inherits its predecessor's orders, which cover its unchanged row prefix,
// and leaves the appended rows as their tail; the first request that finds
// the tail longer than 1/orderTailFraction of the covered rows extends the
// order over it. SortBy, Reshard, Replace and reopening start without
// orders. Columns beyond 2^31 rows get none. It implements
// filter.ValueOrderer.
func (r *Relation) ValueOrder(name string) (vals []float64, onScale []bool, ord *filter.ValueOrder, ok bool) {
	ci, ok := r.schema.Index(name)
	if !ok || !numericType(r.schema.Col(ci).Type) {
		return nil, nil, nil, false
	}
	g := r.cur()
	vals, onScale, _ = g.floatColumn(r.schema, name)
	return vals, onScale, g.valueOrder(ci, vals, onScale), true
}

// orderTailFraction bounds an inherited order's unindexed tail: past
// covered/orderTailFraction appended rows, a request extends the order.
const orderTailFraction = 8

// orderSet maps a column to its value order; a column present with a nil
// order has been requested once. A published set is never modified.
type orderSet map[int]*filter.ValueOrder

// servable reports whether o may answer a request over n rows.
func servable(o *filter.ValueOrder, n int) bool {
	return o != nil && n-o.Covers <= o.Covers/orderTailFraction
}

// valueOrder serves, marks or builds column ci's order over the
// generation's float image.
func (g *generation) valueOrder(ci int, vals []float64, onScale []bool) *filter.ValueOrder {
	if len(vals) > math.MaxInt32 {
		return nil
	}
	if set := g.orders.Load(); set != nil && servable((*set)[ci], len(vals)) {
		return (*set)[ci]
	}
	g.orderMu.Lock()
	defer g.orderMu.Unlock()
	var cur orderSet
	if set := g.orders.Load(); set != nil {
		cur = *set
	}
	o, seen := cur[ci]
	switch {
	case servable(o, len(vals)):
		return o
	case seen:
		o = extendOrder(o, vals, onScale)
	}
	next := make(orderSet, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[ci] = o
	g.orders.Store(&next)
	return o
}

// extendOrder returns an order over every row of vals: prev's sorted part
// merged with the sorted rows past prev.Covers, then prev's NaN rows and
// the new ones. A nil prev builds from scratch.
func extendOrder(prev *filter.ValueOrder, vals []float64, onScale []bool) *filter.ValueOrder {
	if prev == nil {
		prev = &filter.ValueOrder{}
	}
	var fresh, nan []int32
	for i := prev.Covers; i < len(vals); i++ {
		switch {
		case !onScale[i]:
		case math.IsNaN(vals[i]):
			nan = append(nan, int32(i))
		default:
			fresh = append(fresh, int32(i))
		}
	}
	slices.SortFunc(fresh, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	old := prev.Pos[:prev.Ordered]
	pos := make([]int32, 0, len(prev.Pos)+len(fresh)+len(nan))
	for len(old) > 0 && len(fresh) > 0 {
		if vals[fresh[0]] < vals[old[0]] {
			pos, fresh = append(pos, fresh[0]), fresh[1:]
		} else {
			pos, old = append(pos, old[0]), old[1:]
		}
	}
	pos = append(append(pos, old...), fresh...)
	ordered := len(pos)
	pos = append(append(pos, prev.Pos[prev.Ordered:]...), nan...)
	return &filter.ValueOrder{Pos: pos, Ordered: ordered, Covers: len(vals)}
}

// Resolves implements pref.Resolver: every row of a relation carries
// every schema attribute.
func (r *Relation) Resolves(name string) bool {
	_, ok := r.schema.Index(name)
	return ok
}

// Columnarize eagerly builds the typed arrays of every linearly ordered
// column, so later compiled evaluations find them ready. It is optional:
// FloatColumn builds lazily on first use.
func (r *Relation) Columnarize() {
	g := r.cur()
	for _, c := range r.schema.Columns() {
		g.floatColumn(r.schema, c.Name)
	}
}

// FromColumns builds a relation from column-major data: cols[k] holds the
// values of schema column k, all of equal length. Values are type-checked
// as in Insert, and the linearly ordered columns' typed arrays are built
// in the same pass, so the relation is born columnar.
func FromColumns(name string, schema *Schema, cols ...[]pref.Value) (*Relation, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("relation %s: %d columns for schema arity %d", name, len(cols), schema.Len())
	}
	n := 0
	for k, col := range cols {
		if k == 0 {
			n = len(col)
		} else if len(col) != n {
			return nil, fmt.Errorf("relation %s: column %s has %d rows, want %d", name, schema.Col(k).Name, len(col), n)
		}
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, len(cols))
	}
	for k, col := range cols {
		t := schema.Col(k).Type
		for i, v := range col {
			if err := checkValue(t, v); err != nil {
				return nil, fmt.Errorf("relation %s, column %s, row %d: %w", name, schema.Col(k).Name, i, err)
			}
			rows[i][k] = v
		}
	}
	r := New(name, schema)
	r.gen.Load().rows = rows
	r.Columnarize()
	return r, nil
}
