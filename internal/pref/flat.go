package pref

import "math"

// The flat fragment: prioritized chains of Pareto groups over scalar
// leaves, G1 & G2 & … & Gm with every Gk a ⊗ of score-vector leaves.
// Pareto accumulation is associative (Proposition 2), and with it the
// nested definition unfolds exactly — x <Gk y iff every leaf finds y
// better or projection-equal and some leaf finds it strictly better;
// x =Gk y iff every leaf's attribute is equal — so a nested binary ⊗ tree
// (or an n-ary ProductPref, or any mix) is one list of dimensions,
// overlapping attribute names included: a repeated attribute simply
// contributes its tie operand once per leaf. Prioritized accumulation
// (Definition 9) is lexicographic over the groups in either nesting.
// Compile lowers such a term to a FlatShape next to the predicate tree;
// the engine's dominance kernel evaluates it without walking the tree.

// Tie is the projection-equality operand of one attribute over a bound
// source — what Definitions 8 and 9 consult when a leaf ranks neither row
// above the other: x_A = y_A. It comes in two forms, both shared by
// reference with the source's column storage.
//
// For an INT or FLOAT attribute (Val/On set) equality is decided on the
// column's float image, exactly as EqualValues decides it on the boxed
// values: two on-scale rows are equal iff Val[i] == Val[j] — which folds
// ±0, keeps every NaN apart from everything including another NaN, and
// ties an int with the float of the same value, or two ints beyond 2^53
// that share an image, precisely because EqualValues compares that image;
// two off-scale rows (NULLs — the column type admits nothing else) are
// equal; an off-scale row never equals an on-scale one, whatever ±Inf
// score both were given. No dictionary is derived.
//
// Every other attribute (Code set) carries equality codes: TIME (its
// image is truncated to seconds, equality is to the nanosecond), strings,
// booleans, and the columns of generic sources, which may mix types.
//
// The zero Tie belongs to a leaf whose projection equality no definition
// consults (see FlatDim).
type Tie struct {
	Code []uint32
	Val  []float64
	On   []bool
}

// Equal reports projection equality of rows i and j. A row equals itself
// — a NaN row too, the one place this departs from EqualValues: NaN
// occurrences are classes of their own, as under codes.
func (t Tie) Equal(i, j int) bool {
	if t.Code != nil {
		return t.Code[i] == t.Code[j]
	}
	if !t.On[i] || !t.On[j] {
		return t.On[i] == t.On[j]
	}
	return t.Val[i] == t.Val[j] || i == j
}

// Reserved keys of a numeric Tie: both are NaN bit patterns, which no
// on-scale value that is not NaN can produce.
const (
	tieKeyOff = ^uint64(0)   // off-scale rows: one shared class
	tieKeyNaN = 0x7FF8 << 48 // | row: every NaN row its own class
)

// Key returns row i's equality class as one machine word: Key(i) == Key(j)
// iff Equal(i, j). The dominance kernel stores it in its
// row-major records, so a tie costs one integer compare whichever form
// the operand has. Codes widen; a numeric image contributes its bits with
// −0 folded onto +0, off-scale rows share a reserved pattern and a NaN row
// takes one unique to its position.
func (t Tie) Key(i int) uint64 {
	switch {
	case t.Code != nil:
		return uint64(t.Code[i])
	case t.Val == nil:
		return 0
	case !t.On[i]:
		return tieKeyOff
	}
	v := t.Val[i]
	switch {
	case v != v:
		return tieKeyNaN | uint64(i)
	case v == 0:
		return 0
	}
	return math.Float64bits(v)
}

// FlatDim is one leaf of a flat shape: its "higher is better" score
// vector and the tie operand of its attribute, both shared by reference
// with the bound form's predicate tree.
type FlatDim struct {
	Score []float64
	// Tie is zero on exactly one kind of dimension: the single leaf of a
	// final group. No definition ever consults that leaf's projection
	// equality (Definition 9 asks only for the equality of the operands
	// BEFORE the last, and a lone leaf has no sibling whose strictness a
	// tie would have to license), the predicate tree holds no tie operand
	// for it, and the shape does not derive one.
	Tie Tie
}

// FlatShape is the dominance-kernel descriptor of a term in the flat
// fragment: the leaves of all groups in term order, and the group
// boundaries. It references the bound form's vectors and adds nothing to
// its residency.
type FlatShape struct {
	Dims []FlatDim
	// Ends[g] is one past the last dimension of group g; groups are in
	// priority order, most important first.
	Ends []int
}

// Flat returns the form's flat shape, or nil when the term is outside the
// flat fragment (see FlatShaped) or a leaf carries an attribute presence
// mask (generic sources whose tuples may lack the attribute): callers then
// compare through Less.
func (cd *Compiled) Flat() *FlatShape { return cd.flat }

// FlatShaped reports whether the term is structurally inside the flat
// fragment: a prioritized chain (any nesting of &) whose operands are
// Pareto accumulations (any nesting of ⊗ / ParetoProduct) of single-
// attribute score-vector leaves. EXPLICIT graphs and linear sums (matrix
// layers), duals, ♦, +, rank(F) and a & nested inside a ⊗ are outside.
// Over a schema-backed source every such term lowers to a FlatShape.
func FlatShaped(p Preference) bool {
	if q, ok := p.(*PrioritizedPref); ok {
		return FlatShaped(q.Left()) && FlatShaped(q.Right())
	}
	return flatGroupShaped(p)
}

// flatGroupShaped reports whether p is a Pareto accumulation of flat
// leaves.
func flatGroupShaped(p Preference) bool {
	switch q := p.(type) {
	case *ParetoPref:
		return flatGroupShaped(q.Left()) && flatGroupShaped(q.Right())
	case *ProductPref:
		for _, part := range q.Parts() {
			if !flatGroupShaped(part) {
				return false
			}
		}
		return true
	case *Around, *Between, *Lowest, *Highest, *Score, *Pos, *Neg, *PosNeg, *PosPos:
		return true
	}
	return false
}

// flatShape lowers a compiled term to its flat shape; it runs after the
// predicate tree is built, so every vector it references already exists
// (the tie operands are column references: the tree asked for exactly
// these).
func (c *compiler) flatShape(p Preference) *FlatShape {
	if !FlatShaped(p) {
		return nil
	}
	for _, mask := range c.presVecs {
		if mask != nil {
			// A masked leaf is unranked against everything where the
			// attribute is absent; the kernel compares scores unguarded.
			return nil
		}
	}
	fs := &FlatShape{Dims: make([]FlatDim, 0, 4), Ends: make([]int, 0, 2)}
	c.flatChain(fs, p, true)
	return fs
}

// flatChain appends the groups of a prioritized chain; last reports that
// nothing follows p in the chain.
func (c *compiler) flatChain(fs *FlatShape, p Preference, last bool) {
	if q, ok := p.(*PrioritizedPref); ok {
		c.flatChain(fs, q.Left(), false)
		c.flatChain(fs, q.Right(), last)
		return
	}
	lone := true // a group that is itself a leaf
	switch p.(type) {
	case *ParetoPref, *ProductPref:
		lone = false
	}
	c.flatGroup(fs, p, !(lone && last))
	fs.Ends = append(fs.Ends, len(fs.Dims))
}

// flatGroup appends the leaves of one Pareto group, with their tie
// operands unless the group is the single final leaf (see FlatDim.Tie).
func (c *compiler) flatGroup(fs *FlatShape, p Preference, coded bool) {
	switch q := p.(type) {
	case *ParetoPref:
		c.flatGroup(fs, q.Left(), coded)
		c.flatGroup(fs, q.Right(), coded)
	case *ProductPref:
		for _, part := range q.Parts() {
			c.flatGroup(fs, part, coded)
		}
	default:
		dim := FlatDim{Score: c.scoreVecs[p]}
		if coded {
			dim.Tie = c.tie(p.Attrs()[0])
		}
		fs.Dims = append(fs.Dims, dim)
	}
}
