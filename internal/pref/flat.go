package pref

// The flat fragment: prioritized chains of Pareto groups over scalar
// leaves, G1 & G2 & … & Gm with every Gk a ⊗ of score-vector leaves.
// Pareto accumulation is associative (Proposition 2), and with it the
// nested definition unfolds exactly — x <Gk y iff every leaf finds y
// better or projection-equal and some leaf finds it strictly better;
// x =Gk y iff every leaf's attribute is equal — so a nested binary ⊗ tree
// (or an n-ary ProductPref, or any mix) is one list of dimensions,
// overlapping attribute names included: a repeated attribute simply
// contributes its equality column once per leaf. Prioritized accumulation
// (Definition 9) is lexicographic over the groups in either nesting.
// Compile lowers such a term to a FlatShape next to the predicate tree;
// the engine's dominance kernel evaluates it without walking the tree.

// FlatDim is one leaf of a flat shape: its "higher is better" score
// vector and the equality codes of its attribute, both shared by
// reference with the bound form's predicate tree.
type FlatDim struct {
	Score []float64
	// Code is nil on exactly one kind of dimension: the single leaf of a
	// final group. No definition ever consults that leaf's projection
	// equality (Definition 9 asks only for the equality of the operands
	// BEFORE the last, and a lone leaf has no sibling whose strictness a
	// tie would have to license), the predicate tree holds no equality
	// column for it, and the shape does not derive one.
	Code []uint32
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
// (the equality columns are memoized: the tree asked for exactly these).
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

// flatGroup appends the leaves of one Pareto group, with their equality
// columns unless the group is the single final leaf (see FlatDim.Code).
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
			dim.Code = c.eqVec(p.Attrs()[0])
		}
		fs.Dims = append(fs.Dims, dim)
	}
}
