package pref

import (
	"math"
	"slices"
)

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
//
// A statement seen once binds such a term over its hard-selected
// candidates only, σ[P](σ_H(R)) (§5), and needs nothing but the shape:
// BindFlat reads each leaf's column image at the candidates' positions and
// writes the scores and tie keys the kernel compares, slot by slot, into
// vectors the source lends — no gathered column copy, no score-vector
// registry, no predicate tree. AppendRows copies rows of a shape out as
// records that outlive its vectors: a shard's local maxima, carried into
// the cross-shard fold.

// Tie is the projection-equality operand of one attribute over a bound
// source — what Definitions 8 and 9 consult when a leaf ranks neither row
// above the other: x_A = y_A. It comes in three forms. Two are shared by
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
// The third form (Keys set) holds either kind as its Key words, one per
// row, precomputed: what a flat bind over positions writes and what copied
// records keep, neither having a column to derive a key from.
//
// The zero Tie belongs to a leaf whose projection equality no definition
// consults (see FlatDim).
type Tie struct {
	Code []uint32
	Val  []float64
	On   []bool
	Keys []uint64
}

// Equal reports projection equality of rows i and j. A row equals itself
// — a NaN row too, the one place this departs from EqualValues: NaN
// occurrences are classes of their own, as under codes.
func (t Tie) Equal(i, j int) bool {
	switch {
	case t.Keys != nil:
		return t.Keys[i] == t.Keys[j]
	case t.Code != nil:
		return t.Code[i] == t.Code[j]
	case !t.On[i] || !t.On[j]:
		return t.On[i] == t.On[j]
	}
	return t.Val[i] == t.Val[j] || i == j
}

// consulted reports that the operand is not the zero Tie.
func (t Tie) consulted() bool { return t.Keys != nil || t.Code != nil || t.Val != nil }

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
	case t.Keys != nil:
		return t.Keys[i]
	case t.Code != nil:
		return uint64(t.Code[i])
	case t.Val == nil:
		return 0
	}
	return numericKey(t.Val[i], t.On[i], i)
}

// numericKey is the Key of row i of a numeric image: v on scale or not.
func numericKey(v float64, on bool, i int) uint64 {
	switch {
	case !on:
		return tieKeyOff
	case v != v:
		return tieKeyNaN | uint64(i)
	case v == 0:
		return 0
	}
	return math.Float64bits(v)
}

// FlatDim is one leaf of a flat shape: its "higher is better" score
// vector and the tie operand of its attribute, both shared by reference
// with the bound form's predicate tree (or lent by the source of a flat
// bind).
type FlatDim struct {
	Score []float64
	// Tie is zero on exactly one kind of dimension: the single leaf of a
	// final group. No definition ever consults that leaf's projection
	// equality (Definition 9 asks only for the equality of the operands
	// BEFORE the last, and a lone leaf has no sibling whose strictness a
	// tie would have to license), the predicate tree holds no tie operand
	// for it, and the shape does not derive one.
	Tie Tie
	// Attr is the leaf's attribute.
	Attr string
	// Coded reports a tie operand keyed on equality codes — a dictionary
	// of the one source the form was bound over, so keys from two sources
	// compare only once re-keyed over their union — rather than on the
	// attribute's float image.
	Coded bool
	// exact is Compile's ±Inf collapse verdict on the dimension (+1: a
	// score tie is a value tie, −1: not; see InfCollapse); 0 leaves
	// TiesExact to derive it from the tie keys.
	exact int8
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

// TiesExact reports that on every dimension a score tie is a value tie as
// far as infinities go: each infinite score (per sign) absorbed at most
// one value class, and no dimension scores on a truncated scale (a coded
// tie: TIME) — the InfCollapse gate over the rows actually bound. A shape
// from Compile answers from the collapse records it derived while
// binding; a flat bind's shape and copied records derive the verdict
// here, from the tie keys, only when a caller asks. A dimension without a
// tie operand (a final single leaf) reports false.
func (fs *FlatShape) TiesExact() bool {
	for d := range fs.Dims {
		if !fs.Dims[d].tiesExact() {
			return false
		}
	}
	return true
}

func (d *FlatDim) tiesExact() bool {
	if d.exact != 0 {
		return d.exact > 0
	}
	if d.Coded || !d.Tie.consulted() {
		return false
	}
	var class [2]uint64 // the key each infinity (−, +) absorbed
	var seen [2]bool
	for i, s := range d.Score {
		if !math.IsInf(s, 0) {
			continue
		}
		sign, k := 0, d.Tie.Key(i)
		if s > 0 {
			sign = 1
		}
		if seen[sign] && class[sign] != k {
			return false
		}
		class[sign], seen[sign] = k, true
	}
	return true
}

// AppendRows appends rows of src to fs as records — the rows at, or every
// row when at is nil: scores copied and tie keys precomputed
// (Tie.Keys), so they outlive src's vectors. An fs without dimensions
// first takes src's structure (groups, attributes, which ties are
// consulted), reusing whatever storage it had. A NaN row's key names its
// new slot, so NaN rows from different sources never share a class; a
// coded key is copied as it is, and compares with another source's only
// once re-keyed (Coded).
func (fs *FlatShape) AppendRows(src *FlatShape, at []int) {
	if len(fs.Dims) == 0 {
		fs.Ends = append(fs.Ends[:0], src.Ends...)
		fs.Dims = slices.Grow(fs.Dims, len(src.Dims))[:len(src.Dims)]
		for d := range fs.Dims {
			dim, from := &fs.Dims[d], &src.Dims[d]
			score, keys := dim.Score[:0], dim.Tie.Keys[:0]
			if keys == nil {
				keys = []uint64{}
			}
			*dim = FlatDim{Score: score, Attr: from.Attr, Coded: from.Coded}
			if from.Tie.consulted() {
				dim.Tie.Keys = keys
			}
		}
	}
	n := len(at)
	if at == nil {
		n = len(src.Dims[0].Score)
	}
	for d := range fs.Dims {
		dim, from := &fs.Dims[d], &src.Dims[d]
		base := len(dim.Score)
		dim.Score = slices.Grow(dim.Score, n)[:base+n]
		keys := dim.Tie.Keys
		if keys != nil {
			keys = slices.Grow(keys, n)[:base+n]
			dim.Tie.Keys = keys
		}
		for k := 0; k < n; k++ {
			i := k
			if at != nil {
				i = at[k]
			}
			dim.Score[base+k] = from.Score[i]
			if keys != nil {
				key := from.Tie.Key(i)
				if key&^(1<<48-1) == tieKeyNaN {
					key = tieKeyNaN | uint64(base+k)
				}
				keys[base+k] = key
			}
		}
	}
}

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

// ScaleLeaf is one LOWEST, HIGHEST, AROUND or BETWEEN leaf of a flat term:
// its attribute and the score Compile and BindFlat give an on-scale value
// of the attribute's float image.
type ScaleLeaf struct {
	Leaf  Preference
	Attr  string
	Score func(float64) float64
}

// ScaleLeaves returns the leaves of a term of the flat fragment in term
// order when every one is a LOWEST, HIGHEST, AROUND or BETWEEN leaf;
// ok=false otherwise.
func ScaleLeaves(p Preference) (leaves []ScaleLeaf, ok bool) {
	if !FlatShaped(p) {
		return nil, false
	}
	ok = flatChain(p, true, func(g Preference, _ bool) bool {
		return flatLeaves(g, func(leaf Preference) bool {
			attr, score, ok := scorerOf(leaf)
			leaves = append(leaves, ScaleLeaf{Leaf: leaf, Attr: attr, Score: score.of})
			return ok
		})
	})
	return leaves, ok
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

// flatChain walks a prioritized chain of a flat term, group by group in
// priority order, handing each group to group together with whether its
// leaves carry tie operands: all do except a final group that is a single
// leaf (see FlatDim.Tie). last reports that nothing follows p.
func flatChain(p Preference, last bool, group func(g Preference, tied bool) bool) bool {
	if q, ok := p.(*PrioritizedPref); ok {
		return flatChain(q.Left(), false, group) && flatChain(q.Right(), last, group)
	}
	lone := true // a group that is itself a leaf
	switch p.(type) {
	case *ParetoPref, *ProductPref:
		lone = false
	}
	return group(p, !(lone && last))
}

// flatLeaves hands the leaves of one Pareto group to leaf, in term order.
func flatLeaves(p Preference, leaf func(Preference) bool) bool {
	switch q := p.(type) {
	case *ParetoPref:
		return flatLeaves(q.Left(), leaf) && flatLeaves(q.Right(), leaf)
	case *ProductPref:
		for _, part := range q.Parts() {
			if !flatLeaves(part, leaf) {
				return false
			}
		}
		return true
	}
	return leaf(p)
}

// flatShape lowers a compiled term to its flat shape in fs, reporting
// whether it has one; it runs after the predicate tree is built, so every
// vector it references already exists (the tie operands are column
// references: the tree asked for exactly these).
func (c *compiler) flatShape(p Preference, fs *FlatShape) bool {
	if !FlatShaped(p) {
		return false
	}
	for _, mask := range c.presVecs {
		if mask != nil {
			// A masked leaf is unranked against everything where the
			// attribute is absent; the kernel compares scores unguarded.
			return false
		}
	}
	fs.Dims, fs.Ends = make([]FlatDim, 0, 4), make([]int, 0, 2)
	return flatChain(p, true, func(g Preference, tied bool) bool {
		flatLeaves(g, func(leaf Preference) bool {
			attr := leaf.Attrs()[0]
			dim := FlatDim{Score: c.scoreVecs[leaf], Attr: attr, exact: -1}
			if c.scoreInf[leaf].Exact {
				dim.exact = 1
			}
			if tied {
				dim.Tie = c.tie(attr)
				dim.Coded = dim.Tie.Code != nil
			}
			fs.Dims = append(fs.Dims, dim)
			return true
		})
		fs.Ends = append(fs.Ends, len(fs.Dims))
		return true
	})
}

// PositionSource is implemented by sources whose rows are selected
// positions of larger column images (relation.Gathered): slot Off+k of a
// part is row At[k] of that part's images. A flat bind (BindFlat) reads
// the images at the positions instead of asking for slot-indexed copies,
// and writes what it derives into vectors the source lends.
type PositionSource interface {
	Source
	FloatLender
	// LendKeys returns a length-n key vector of unspecified content with
	// the source's lifetime: the tie keys of a flat bind.
	LendKeys(n int) []uint64
	// Parts returns the number of parts: runs of consecutive slots whose
	// rows share one set of column images.
	Parts() int
	// FloatPart returns part k's share of the attribute's float image and
	// on-scale mask (the FloatColumner scale); numeric reports that the
	// image decides value equality (INT and FLOAT, see NumericColumner).
	// ok=false when the attribute has no such image.
	FloatPart(k int, attr string) (part ColumnPart, numeric, ok bool)
	// EqPart returns part k's share of the attribute's equality codes (see
	// EqColumner); ok=false when the source has none for it, or none that
	// compare across all its parts.
	EqPart(k int, attr string) (part ColumnPart, ok bool)
}

// ColumnPart is one part's view of a column: the image over the rows the
// part selects from and the positions it selects, slot Off+k holding row
// At[k] — with the float image and its on-scale mask, or the equality
// codes.
type ColumnPart struct {
	Off     int
	At      []int
	Vals    []float64
	OnScale []bool
	Codes   []uint32
}

// BindFlat binds p, a term of the flat fragment, over the rows src
// selects, into cd — reusing cd's storage, whatever it held before — and
// reports whether it could: ok=false when p is outside the fragment, a
// scorer leaf's attribute has no float image, or a tie or a class leaf
// needs codes the source does not have (the caller then compiles). One
// pass per leaf over the positions writes exactly what the dominance
// kernel reads into lent vectors: the leaf's score at every slot and,
// where the shape consults its tie, the tie's Key word — image bits for
// INT/FLOAT, the generation's equality code otherwise (Coded). Scores
// equal Compile's over the gathered rows slot for slot, keys class for
// class. The form holds the flat shape only; it must not be read once src
// is released, and its ±Inf collapse verdict is derived on request
// (FlatShape.TiesExact).
func BindFlat(cd *Compiled, p Preference, src PositionSource) bool {
	if !FlatShaped(p) {
		return false
	}
	n := src.Len()
	fs := &cd.shape
	fs.Dims, fs.Ends = fs.Dims[:0], fs.Ends[:0]
	ok := flatChain(p, true, func(g Preference, tied bool) bool {
		ok := flatLeaves(g, func(leaf Preference) bool {
			dim := FlatDim{Score: src.LendFloats(n), Attr: leaf.Attrs()[0]}
			if tied {
				dim.Tie.Keys = src.LendKeys(n)
			}
			if !bindLeaf(src, leaf, &dim) {
				return false
			}
			fs.Dims = append(fs.Dims, dim)
			return true
		})
		fs.Ends = append(fs.Ends, len(fs.Dims))
		return ok
	})
	if !ok {
		return false
	}
	cd.n, cd.root, cd.p, cd.flat = n, nil, p, fs
	cd.scoreVecs, cd.scoreInf, cd.rankVecs, cd.keys, cd.keysOK = nil, nil, nil, nil, false
	return true
}

// bindLeaf writes one leaf's scores into dim.Score and, when dim has a key
// vector, its tie keys: a scorer leaf from its float image in one pass
// (keys included where the image decides equality), a class leaf once per
// equality code.
func bindLeaf(src PositionSource, leaf Preference, dim *FlatDim) bool {
	keys := dim.Tie.Keys
	if attr, score, ok := scorerOf(leaf); ok {
		numeric, ok := scanImage(src, attr, dim.Score, keys, score)
		if !ok {
			return false
		}
		if keys == nil || numeric {
			return true
		}
	} else {
		attr, score, _ := classOf(leaf)
		if !scoreClasses(src, attr, dim.Score, score) {
			return false
		}
		if keys == nil {
			return true
		}
		if numeric, ok := scanImage(src, attr, nil, keys, scaleScore{}); ok && numeric {
			return true
		}
	}
	dim.Coded = true
	return codeKeys(src, dim.Attr, keys)
}

// scanImage reads the attribute's float image at every slot's position,
// writing a scorer's scores into s (off-scale rows score −Inf) and, when
// the image decides equality (numeric), the tie keys into keys; either
// vector may be nil.
func scanImage(src PositionSource, attr string, s []float64, keys []uint64, score scaleScore) (numeric, ok bool) {
	for k := range src.Parts() {
		part, num, ok := src.FloatPart(k, attr)
		if !ok {
			return false, false
		}
		numeric = num
		for j, i := range part.At {
			slot, v, on := part.Off+j, part.Vals[i], part.OnScale[i]
			if s != nil {
				if on {
					s[slot] = score.of(v)
				} else {
					s[slot] = math.Inf(-1)
				}
			}
			if keys != nil && num {
				keys[slot] = numericKey(v, on, slot)
			}
		}
	}
	return numeric, true
}

// scoreClasses writes a class leaf's scores: score runs once per
// equality code, on the first row of the class (as classScoreLeaf does).
func scoreClasses(src PositionSource, attr string, s []float64, score func(Value) float64) bool {
	byCode := make(map[uint32]float64)
	for k := range src.Parts() {
		part, ok := src.EqPart(k, attr)
		if !ok {
			return false
		}
		for j, i := range part.At {
			slot, code := part.Off+j, part.Codes[i]
			v, seen := byCode[code]
			if !seen {
				val, _ := src.Tuple(slot).Get(attr)
				v = score(val)
				byCode[code] = v
			}
			s[slot] = v
		}
	}
	return true
}

// codeKeys writes the attribute's equality codes as tie keys.
func codeKeys(src PositionSource, attr string, keys []uint64) bool {
	for k := range src.Parts() {
		part, ok := src.EqPart(k, attr)
		if !ok {
			return false
		}
		for j, i := range part.At {
			keys[part.Off+j] = uint64(part.Codes[i])
		}
	}
	return true
}
