package relation

import (
	"repro/internal/pref"
)

// Gathered binds: the subset-proportional input of the bind layers. A
// bound form (pref.Compile, the quality vectors) costs one pass over its
// whole Source, which is the right price when the form is cached and
// reused, and the wrong one for a statement that is seen once and whose
// hard selection kept a few hundred rows of a large shard. Gather copies
// exactly those rows' column images — float scale values with on-scale
// masks, equality codes where a bind asks for class ids — into a small
// columnar Source; binding over it costs O(|candidates|), and the bound
// form addresses rows by SLOT (the candidate's position in the gathered
// list), not by relation position.
//
// The same type serves the cross-shard merge: Sharded.Gather concatenates
// per-shard position lists into one source, so the shards' local maxima
// evaluate together under one ordinary compiled form.

// gatherFraction is the subset rule shared by every bind layer (BMO,
// ranked scoring, BUT ONLY): a cold bind gathers when the candidates are
// at most 1/gatherFraction of the relation, and binds the whole relation
// — entering the bound-form cache, where later statements reuse it —
// otherwise. At a quarter the gathered bind does at most a quarter of
// the full bind's work and pins nothing; above it the saving shrinks
// while the chance that the cached full form pays for itself does not.
const gatherFraction = 4

// GatherWorthwhile reports whether a cold bind over m candidate rows of
// an n-row relation should gather the candidates instead of binding the
// whole relation. It is a pure function of the two cardinalities; callers
// consult their bound-form cache first — a cached form is free at any
// selectivity.
func GatherWorthwhile(m, n int) bool {
	return m*gatherFraction <= n
}

// Gathered is a small columnar copy of selected rows: slot k holds the
// k-th selected row. It implements pref.Source, pref.FloatColumner,
// pref.NumericColumner, pref.EqColumner and pref.Resolver; columns are
// copied out lazily, on the first request for an attribute, from the
// typed arrays the generation caches (mmap'd segment images on a paged
// relation — no row page is decoded for a numeric column). A Gathered is
// bind-time state for one goroutine: it is not safe for concurrent use,
// and the forms bound over it keep only the vectors they derived.
type Gathered struct {
	schema *Schema
	parts  []gatherPart
	n      int
	floats map[int]*floatColumn
	eqs    map[int][]uint32
}

// gatherPart is one relation's share of a gathered source: the pinned
// generation the positions index into, and the slot of its first row.
type gatherPart struct {
	g   *generation
	idx []int
	off int
}

// Gather returns the gathered source of the rows at the given positions
// (no duplicates; the slice is borrowed for the source's lifetime).
func (r *Relation) Gather(idx []int) *Gathered {
	return &Gathered{
		schema: r.schema,
		parts:  []gatherPart{{g: r.cur(), idx: idx}},
		n:      len(idx),
	}
}

// Gather returns the gathered source of per-shard position lists, slots
// numbered shard-major in list order (sets is aligned with the shard
// indices; empty lists contribute nothing).
func (s *Sharded) Gather(sets [][]int) *Gathered {
	g := &Gathered{schema: s.schema}
	for i, sh := range s.Shards() {
		if len(sets[i]) == 0 {
			continue
		}
		g.parts = append(g.parts, gatherPart{g: sh.cur(), idx: sets[i], off: g.n})
		g.n += len(sets[i])
	}
	return g
}

// Len returns the number of gathered rows.
func (g *Gathered) Len() int { return g.n }

// Tuple returns the tuple view of the row in the given slot. Binding
// reaches for it only where no column image serves — once per value
// class of a discrete layer, per row for EXPLICIT graphs.
func (g *Gathered) Tuple(slot int) pref.Tuple {
	p := len(g.parts) - 1
	for p > 0 && g.parts[p].off > slot {
		p--
	}
	part := g.parts[p]
	return rowTuple{schema: g.schema, row: part.g.row(part.idx[slot-part.off])}
}

// FloatColumn implements pref.FloatColumner over the gathered rows.
func (g *Gathered) FloatColumn(name string) (vals []float64, onScale []bool, ok bool) {
	ci, ok := g.schema.Index(name)
	if !ok {
		return nil, nil, false
	}
	col, hit := g.floats[ci]
	if !hit {
		col = &floatColumn{vals: make([]float64, g.n), onScale: make([]bool, g.n)}
		for _, part := range g.parts {
			src, mask, ok := part.g.floatColumn(g.schema, name)
			if !ok {
				return nil, nil, false
			}
			for k, i := range part.idx {
				col.vals[part.off+k], col.onScale[part.off+k] = src[i], mask[i]
			}
		}
		if g.floats == nil {
			g.floats = make(map[int]*floatColumn)
		}
		g.floats[ci] = col
	}
	return col.vals, col.onScale, true
}

// NumericColumn implements pref.NumericColumner: FloatColumn for INT and
// FLOAT columns only — the types whose float image decides value equality,
// so bind layers tie their rows on the gathered image and never ask for
// codes.
func (g *Gathered) NumericColumn(name string) (vals []float64, onScale []bool, ok bool) {
	if ci, ok := g.schema.Index(name); !ok || !numericType(g.schema.Col(ci).Type) {
		return nil, nil, false
	}
	return g.FloatColumn(name)
}

// Resolves implements pref.Resolver: every gathered row carries every
// schema attribute.
func (g *Gathered) Resolves(name string) bool {
	_, ok := g.schema.Index(name)
	return ok
}

// EqColumn implements pref.EqColumner over the gathered rows: dense
// codes, equal exactly when the values are equal in the pref.EqualValues
// sense — the class ids of the once-per-class leaves (POS-family levels,
// SCORE) and the tie operands of non-numeric attributes. Rows of one
// relation re-densify its cached codes; across shards the per-shard
// dictionaries are unrelated, so the codes derive from the raw row
// values.
func (g *Gathered) EqColumn(name string) ([]uint32, bool) {
	ci, ok := g.schema.Index(name)
	if !ok {
		return nil, false
	}
	codes, hit := g.eqs[ci]
	if !hit {
		if len(g.parts) == 1 {
			part := g.parts[0]
			src, _ := part.g.eqColumn(g.schema, name)
			codes = densifyCodes(src, part.idx)
		} else {
			rows := make([]Row, 0, g.n)
			for _, part := range g.parts {
				for _, i := range part.idx {
					rows = append(rows, part.g.row(i))
				}
			}
			codes = buildEqColumn(rows, ci)
		}
		if g.eqs == nil {
			g.eqs = make(map[int][]uint32)
		}
		g.eqs[ci] = codes
	}
	return codes, true
}

// densifyCodes maps the selected rows' relation-wide equality codes onto
// 1..k: bind layers size per-class tables by the source's row count.
func densifyCodes(src []uint32, idx []int) []uint32 {
	codes := make([]uint32, len(idx))
	dense := make(map[uint32]uint32, len(idx))
	for k, i := range idx {
		code, hit := dense[src[i]]
		if !hit {
			code = uint32(len(dense) + 1)
			dense[src[i]] = code
		}
		codes[k] = code
	}
	return codes
}
