package relation

import (
	"math"
	"sync"
	"sync/atomic"

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
// A term of the flat fragment (pref.FlatShaped) asks for no such copy:
// pref.BindFlat reads each part's own column image at the gathered
// positions (Parts, FloatPart, EqPart) and writes only the scores and tie
// keys the dominance kernel compares. The copies above serve the terms
// outside that fragment — and the cross-shard merge of those, through
// Sharded.Gather, which concatenates per-shard position lists into one
// source so the shards' local maxima compare under one compiled form.

// A statement seen once should leave no column garbage behind either: a
// gathered source whose caller brackets it with Borrow and Release carves
// every vector it hands out — float images, on-scale masks, the identity
// slot list, and through pref.FloatLender and LendKeys the score vectors
// and tie keys of the form bound over it — from one slab taken from a pool and returned on Release.

// gatherFraction is the subset rule shared by every bind layer (BMO,
// ranked scoring, BUT ONLY): a bind gathers when the candidates are at
// most 1/gatherFraction of the relation, and binds the whole relation
// otherwise. At a quarter the gathered bind does at most a quarter of
// the full bind's work; above it the gather's copy costs more than the
// rows it saves.
const gatherFraction = 4

// GatherWorthwhile reports whether a cold bind over m candidate rows of
// an n-row relation should gather the candidates instead of binding the
// whole relation. It is a pure function of the two cardinalities; rank's
// score cache is consulted first — a cached vector is free at any
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
//
// Without Borrow those vectors are ordinary garbage-collected memory (the
// ranked and BUT ONLY binds, whose vectors outlive the call in a closure,
// stay that way). Between Borrow and Release they are slab memory: the
// source, every vector it returned and every form bound over it are dead
// at Release, and whoever keeps something past it copies it first.
type Gathered struct {
	schema *Schema
	parts  []gatherPart
	one    [1]gatherPart // the parts of a source gathered from one relation
	n      int
	floats []gatheredFloats // the float images derived so far, a handful at most
	eqs    map[int][]uint32
	slab   *slab // nil: vectors are GC-owned
}

// gatheredFloats is one column's gathered float image.
type gatheredFloats struct {
	ci int
	floatColumn
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
	g := gatheredPool.Get().(*Gathered)
	g.schema, g.one, g.n = r.schema, [1]gatherPart{{g: r.cur(), idx: idx}}, len(idx)
	g.parts = g.one[:]
	return g
}

// gatheredPool recycles the sources a Release hands back: a statement's
// per-shard gathered binds reuse them the way they reuse slabs.
var gatheredPool = sync.Pool{New: func() any { return new(Gathered) }}

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

// Borrow makes the source carve its vectors from a pooled slab until
// Release, which must run on the same goroutine once nothing reads them
// any more. It returns g.
func (g *Gathered) Borrow() *Gathered {
	if g.slab == nil {
		g.slab = slabPool.Get().(*slab)
	}
	return g
}

// Release returns a borrowed slab, and the source itself, to their pools;
// the source, its vectors and the forms bound over it must not be touched
// again. Without a preceding Borrow it does nothing.
func (g *Gathered) Release() {
	if g.slab == nil {
		return
	}
	g.slab.reset()
	slabPool.Put(g.slab)
	*g = Gathered{}
	gatheredPool.Put(g)
}

// LendKeys implements pref.PositionSource: a length-n key vector of
// unspecified content with the source's lifetime — the tie keys of a flat
// bind.
func (g *Gathered) LendKeys(n int) []uint64 {
	if g.slab == nil {
		return make([]uint64, n)
	}
	return g.slab.words.carve(n)
}

// Parts implements pref.PositionSource: one part per relation gathered
// from.
func (g *Gathered) Parts() int { return len(g.parts) }

// FloatPart implements pref.PositionSource: part k's positions over its
// pinned generation's float image and on-scale mask — the images
// themselves, nothing copied; numeric for INT and FLOAT columns.
func (g *Gathered) FloatPart(k int, name string) (part pref.ColumnPart, numeric, ok bool) {
	p := g.parts[k]
	vals, onScale, ok := p.g.floatColumn(g.schema, name)
	if !ok {
		return pref.ColumnPart{}, false, false
	}
	ci, _ := g.schema.Index(name)
	return pref.ColumnPart{Off: p.off, At: p.idx, Vals: vals, OnScale: onScale}, numericType(g.schema.Col(ci).Type), true
}

// EqPart implements pref.PositionSource: the positions over the
// generation's equality codes. Codes compare only within one generation,
// so a source gathered across relations has none (ok=false; EqColumn
// re-keys over raw values instead).
func (g *Gathered) EqPart(k int, name string) (pref.ColumnPart, bool) {
	if len(g.parts) != 1 {
		return pref.ColumnPart{}, false
	}
	p := g.parts[k]
	codes, ok := p.g.eqColumn(g.schema, name)
	if !ok {
		return pref.ColumnPart{}, false
	}
	return pref.ColumnPart{Off: p.off, At: p.idx, Codes: codes}, true
}

// LendFloats implements pref.FloatLender: a length-n vector of unspecified
// content with the source's lifetime — the score vectors of an ephemeral
// bound form.
func (g *Gathered) LendFloats(n int) []float64 {
	if g.slab == nil {
		return make([]float64, n)
	}
	return g.slab.floats.carve(n)
}

// Slots returns the identity slot list 0..Len()-1, the candidate set of an
// evaluation over every gathered row; it has the source's lifetime.
func (g *Gathered) Slots() []int {
	var slots []int
	if g.slab == nil {
		slots = make([]int, g.n)
	} else {
		slots = g.slab.ints.carve(g.n)
	}
	for i := range slots {
		slots[i] = i
	}
	return slots
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
	for _, col := range g.floats {
		if col.ci == ci {
			return col.vals, col.onScale, true
		}
	}
	switch g.schema.Col(ci).Type {
	case Int, Float, Time:
	default:
		return nil, nil, false // no linear scale (generation.floatColumn's rule)
	}
	col := floatColumn{vals: g.LendFloats(g.n)}
	if g.slab == nil {
		col.onScale = make([]bool, g.n)
	} else {
		col.onScale = g.slab.bools.carve(g.n)
	}
	for _, part := range g.parts {
		src, mask, _ := part.g.floatColumn(g.schema, name)
		for k, i := range part.idx {
			col.vals[part.off+k], col.onScale[part.off+k] = src[i], mask[i]
		}
	}
	if g.floats == nil {
		g.floats = make([]gatheredFloats, 0, g.schema.Len())
	}
	g.floats = append(g.floats, gatheredFloats{ci, col})
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

// slab is the memory of one borrowed gathered bind: an arena per element
// type its vectors come in. Slabs cycle through slabPool; a fresh one owns
// nothing, and each arena grows to the demand of the statements it serves.
type slab struct {
	floats arena[float64]
	bools  arena[bool]
	ints   arena[int]
	words  arena[uint64]
}

var slabPool = sync.Pool{New: func() any { return new(slab) }}

// arena hands out consecutive pieces of one chunk. A request the chunk
// cannot hold opens a chunk of at least twice the size — the pieces
// already carved keep the old one alive until their statement ends — so a
// recycled arena settles on one chunk that fits a whole statement.
type arena[T any] struct {
	chunk   []T
	used    int
	retired [][]T // outgrown chunks this statement still reads
}

// carve returns a length-n piece with unspecified content.
func (a *arena[T]) carve(n int) []T {
	if a.used+n > len(a.chunk) {
		if a.used > 0 {
			a.retired = append(a.retired, a.chunk[:a.used])
		}
		a.chunk, a.used = make([]T, max(2*len(a.chunk), n)), 0
	}
	piece := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return piece
}

// reset forgets every piece carved, keeping the current chunk; under
// PoisonReleasedSlabs it first overwrites them with poison.
func (a *arena[T]) reset(poison func([]T)) {
	if poisonReleased.Load() {
		poison(a.chunk[:a.used])
		for _, c := range a.retired {
			poison(c)
		}
	}
	a.used, a.retired = 0, nil
}

func (s *slab) reset() {
	s.floats.reset(func(v []float64) {
		for i := range v {
			v[i] = math.NaN()
		}
	})
	s.bools.reset(func(v []bool) {
		for i := range v {
			v[i] = !v[i]
		}
	})
	s.ints.reset(func(v []int) {
		for i := range v {
			v[i] = -1
		}
	})
	s.words.reset(func(v []uint64) {
		for i := range v {
			v[i] = uint64(i) // no two keys alike: every poisoned tie is unequal
		}
	})
}

// poisonReleased makes Release scribble over everything the slab handed
// out, so a read after release surfaces as a wrong answer or an index
// panic instead of passing by luck.
var poisonReleased atomic.Bool

// PoisonReleasedSlabs is the use-after-release guard of the test suites:
// while on, a released slab's floats read NaN, its masks are flipped, its
// slot lists hold -1 and its key vectors hold no two equal keys. It returns the previous setting.
func PoisonReleasedSlabs(on bool) (was bool) { return poisonReleased.Swap(on) }

// PoisonsReleased reports whether the use-after-release guard is on, for
// pools outside this package that hand back statement memory the same way.
func PoisonsReleased() bool { return poisonReleased.Load() }
