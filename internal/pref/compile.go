package pref

import (
	"math"
	"slices"
	"sync"
	"time"
)

// This file implements the compiled columnar evaluation layer: Compile
// binds a preference term to a concrete tuple collection ONCE — attribute
// names resolve to column vectors, every Scorer/level dimension
// materializes as a flat []float64, discrete layers (POS/NEG/EXPLICIT,
// linear sums) become small ordinal codes — and returns a specialized
// less(i, j int) predicate over row positions. The interpreted path pays a
// schema-map lookup, a Value interface boxing and a type switch for every
// attribute of every pairwise comparison inside the O(n²)/O(n log n) BMO
// loops; the compiled path pays them once per row at bind time and then
// compares flat vectors, the block/column-at-a-time evaluation of the
// skyline literature ([BKS01] block processing, column stores).

// Source is the input of compilation: a fixed collection of tuples
// addressed by position. *relation.Relation satisfies it structurally.
type Source interface {
	// Len returns the number of rows.
	Len() int
	// Tuple returns the row's Tuple view.
	Tuple(i int) Tuple
}

// FloatColumner is optionally implemented by sources with typed columnar
// storage (see relation.FloatColumn): FloatColumn returns the attribute's
// values pre-mapped to the toScale linear scale together with an on-scale
// mask, so materializing a numeric dimension is a vector copy instead of a
// per-row interface unboxing and type switch.
type FloatColumner interface {
	FloatColumn(attr string) (vals []float64, onScale []bool, ok bool)
}

// NumericColumner is optionally implemented by sources whose INT and FLOAT
// columns are held as flat float64 images (see relation.NumericColumn):
// FloatColumn restricted to the column types whose image DECIDES value
// equality — EqualValues compares numerics by exactly this image — so
// ok=false for TIME (its image is truncated to seconds), for non-numeric
// columns and for unknown names. Compilation ties rows of such an
// attribute on the image itself (see Tie) and never asks for its codes.
type NumericColumner interface {
	NumericColumn(attr string) (vals []float64, onScale []bool, ok bool)
}

// EqColumner is optionally implemented by sources that maintain equality
// codes per column (see relation.EqColumn): rows carry equal codes exactly
// when their values are equal in the EqualValues sense. Compilation then
// skips the per-row canonical-key formatting of the generic path, and the
// codes amortize across every compile against the same source. Codes are
// class ids: besides the ties of non-numeric attributes they serve the
// leaves that evaluate once per value class (POS-family levels, SCORE).
// Implementations must return codes only for attributes that resolve on
// every row (schema-backed columns).
type EqColumner interface {
	EqColumn(attr string) (codes []uint32, ok bool)
}

// Resolver is optionally implemented by schema-backed sources: Resolves
// reports that every row carries the attribute, so compilation needs no
// presence mask for it — without deriving any column to find out.
type Resolver interface {
	Resolves(attr string) bool
}

// FloatLender is optionally implemented by sources whose bound forms die
// with them (see relation.Gathered): LendFloats returns a length-n vector
// of unspecified content that lives exactly as long as the source, and
// Compile materializes the form's score vectors in lent memory instead of
// allocating them. A form bound over such a source must not outlive it.
type FloatLender interface {
	LendFloats(n int) []float64
}

// Compiled is the bound form of a preference over one Source: flat score
// vectors, ordinal codes and equality codes, plus the less/dominates
// predicates over row positions. A Compiled is immutable after Compile and
// safe for concurrent readers; it does not observe later source mutations.
// A form a flat bind wrote (BindFlat) holds its flat shape and nothing
// else — no predicate tree, no score-vector registry — and is its
// caller's to bind again.
type Compiled struct {
	n    int
	root cnode
	p    Preference
	// flat is the dominance-kernel descriptor of a term in the flat
	// fragment (see flat.go) — shape, held in place — nil otherwise.
	flat  *FlatShape
	shape FlatShape

	// scoreVecs maps every scorer-or-level sub-term to its materialized
	// score vector ("higher is better"), keyed by term identity. The engine
	// reads chain-product coordinates straight from here.
	scoreVecs map[Preference][]float64
	// scoreInf records, per scorer leaf, which value classes its ±Inf
	// scores absorbed — the soundness gate for coordinate-dominance
	// algorithms (see InfCollapse).
	scoreInf map[Preference]InfCollapse
	// rankVecs caches the dense-rank transform of score vectors, the
	// building block of sound sort keys (see SortKeys).
	rankVecs map[Preference][]float64

	keysOnce sync.Once
	keys     [][]float64
	keysOK   bool
}

// Compile binds p to src. It reports ok=false when the term contains a
// constructor outside the compilable fragment (see Compilable) or a
// dictionary-coded layer exceeds the ordinal-coding capacity; callers then
// keep the interpreted Preference.Less path. The compiled predicate agrees
// with p.Less(src.Tuple(i), src.Tuple(j)) on every pair of positions — the
// cross-evaluation property tests assert exactly that.
func Compile(p Preference, src Source) (*Compiled, bool) {
	c := &compiler{
		src:       src,
		n:         src.Len(),
		eqVecs:    make(map[string][]uint32),
		presVecs:  make(map[string][]bool),
		scoreVecs: make(map[Preference][]float64),
		scoreInf:  make(map[Preference]InfCollapse),
	}
	root, ok := c.compile(p)
	if !ok {
		return nil, false
	}
	cd := &Compiled{
		n:         c.n,
		root:      root,
		p:         p,
		scoreVecs: c.scoreVecs,
		scoreInf:  c.scoreInf,
		rankVecs:  make(map[Preference][]float64),
	}
	if c.flatShape(p, &cd.shape) {
		cd.flat = &cd.shape
	}
	return cd, true
}

// Len returns the bound row count.
func (cd *Compiled) Len() int { return cd.n }

// Pref returns the preference term this form was compiled from. Callers
// that resolve sub-term data by pointer identity (ScoreVec) must walk
// THIS term: a cache-served Compiled may have been built from a different
// — structurally identical — tree than the one the caller holds.
func (cd *Compiled) Pref() Preference { return cd.p }

// Less reports src.Tuple(i) <P src.Tuple(j) over the compiled columns. A
// form from BindFlat has no predicate tree: its callers compare on Flat().
func (cd *Compiled) Less(i, j int) bool { return cd.root.less(i, j) }

// Dominates reports that row i beats row j, i.e. j <P i.
func (cd *Compiled) Dominates(i, j int) bool { return cd.root.less(j, i) }

// ScoreVec returns the materialized score vector of a scorer-or-level
// sub-term of the compiled preference (identified by term identity), or
// nil. Chain-product algorithms read their coordinates from it.
func (cd *Compiled) ScoreVec(p Preference) []float64 { return cd.scoreVecs[p] }

// InfCollapse records which value classes of a scorer leaf collapsed to
// an infinite score when its vector was materialized. The built-in
// LOWEST/HIGHEST scorers are strictly monotone on finite values, so a
// finite score tie always means a value tie — but ±Inf absorbs several
// distinct classes at once (absent attributes and off-scale rows score
// −Inf next to genuinely infinite domain values). The Pareto predicate
// treats such rows as incomparable on that dimension (score tie without
// equality-class tie), while raw coordinate dominance reads the tie as
// non-blocking — so coordinate algorithms over-kill exactly when an
// infinity absorbed two classes. The one finite exception is a TIME
// attribute: its score scale is whole seconds, so unequal instants tie at
// a finite score, and its record is never exact. Exact reports that each
// infinity (per sign) absorbed at most one class; NegClass/PosClass carry
// a canonical witness of that class ("" when no row scores the infinity),
// letting sharded callers check that the SAME class collapsed in every
// shard before comparing coordinates across shards.
type InfCollapse struct {
	Exact    bool
	NegClass string
	PosClass string
}

// note folds one infinite-scoring row's class witness into the record.
func (ic *InfCollapse) note(pos bool, key string) {
	slot := &ic.NegClass
	if pos {
		slot = &ic.PosClass
	}
	if *slot == "" {
		*slot = key
	} else if *slot != key {
		ic.Exact = false
	}
}

// merge folds another record (same dimension, different row range —
// the sharded case) into this one.
func (ic *InfCollapse) merge(o InfCollapse) {
	if !o.Exact {
		ic.Exact = false
	}
	if o.NegClass != "" {
		ic.note(false, o.NegClass)
	}
	if o.PosClass != "" {
		ic.note(true, o.PosClass)
	}
}

// MergeInfCollapse folds per-shard collapse records of one dimension into
// a cross-shard record: exact only when every part is exact and all parts
// collapsed the same class per infinity sign.
func MergeInfCollapse(parts ...InfCollapse) InfCollapse {
	out := InfCollapse{Exact: true}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// ScoreVecInf returns the infinite-score collapse record of a scorer
// sub-term's vector. Sub-terms without a record (level/SCORE leaves,
// whose weak orders tie distinct classes at finite scores too) report
// inexact, so coordinate algorithms gate conservatively.
func (cd *Compiled) ScoreVecInf(p Preference) InfCollapse { return cd.scoreInf[p] }

// ScoreVecExact reports whether coordinate-wise dominance over ScoreVec(p)
// coincides with the compiled predicate on that dimension; see InfCollapse.
func (cd *Compiled) ScoreVecExact(p Preference) bool { return cd.scoreInf[p].Exact }

// SortKeys returns per-dimension key vectors such that comparing rows by
// descending lexicographic key order is compatible with the preference:
// i <P j implies key(i) <lex key(j) strictly, and projection-equality on
// the relevant attribute set implies key equality. SFS-style algorithms
// sort by it; ok=false when the term has no compatible key (general
// partial orders: EXPLICIT graphs, duals, aggregations).
//
// Keys are built from dense ranks of the score vectors rather than the
// raw scores: summing raw scores (the strategy the interpreted key derivation also used before it adopted this transform) loses
// strictness when a component is ±Inf (absent attribute, off-scale value)
// because Inf absorbs the finite component; ranks are always finite, so
// the Pareto sum stays strictly monotone.
func (cd *Compiled) SortKeys() ([][]float64, bool) {
	// Lazy: passes that never rank (BNL, a flat term's sorted pass) skip
	// the rank transforms entirely. sync.Once keeps concurrent partition
	// workers safe.
	cd.keysOnce.Do(func() {
		cd.keys, cd.keysOK = cd.keyVecs(cd.p)
	})
	return cd.keys, cd.keysOK
}

// keyVecs derives the lexicographic key columns: prioritized accumulation
// concatenates (Definition 9 is lexicographic), everything else must
// reduce to a scalar.
func (cd *Compiled) keyVecs(p Preference) ([][]float64, bool) {
	if q, ok := p.(*PrioritizedPref); ok {
		k1, ok1 := cd.keyVecs(q.Left())
		k2, ok2 := cd.keyVecs(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return append(k1, k2...), true
	}
	v, ok := cd.scalarKeyVec(p)
	if !ok {
		return nil, false
	}
	return [][]float64{v}, true
}

// scalarKeyVec derives a scalar key column with i <P j ⇒ key[i] < key[j]
// and projection-equality ⇒ key equality: rank-transformed score vectors
// for scorer/level leaves, sums for Pareto accumulations (each addend is
// ≤ with at least one <, and ranks are finite, so the sum is strict).
func (cd *Compiled) scalarKeyVec(p Preference) ([]float64, bool) {
	if s, ok := cd.scoreVecs[p]; ok {
		return cd.rankOf(p, s), true
	}
	var parts []Preference
	switch q := p.(type) {
	case *ParetoPref:
		parts = []Preference{q.Left(), q.Right()}
	case *ProductPref:
		parts = q.Parts()
	default:
		return nil, false
	}
	sum := make([]float64, cd.n)
	for _, part := range parts {
		v, ok := cd.scalarKeyVec(part)
		if !ok {
			return nil, false
		}
		for i := range sum {
			sum[i] += v[i]
		}
	}
	return sum, true
}

// rankOf returns the cached dense-rank transform of a score vector: equal
// scores share a rank, higher scores get higher ranks, NaN scores form
// their own lowest class (they are unranked against everything, so any
// placement that keeps equal values equal is compatible).
func (cd *Compiled) rankOf(p Preference, s []float64) []float64 {
	if r, ok := cd.rankVecs[p]; ok {
		return r
	}
	order := make([]int, len(s))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmpScore(s[a], s[b]) })
	ranks := make([]float64, len(s))
	rank := 0.0
	for k, i := range order {
		if k > 0 && cmpScore(s[order[k-1]], s[i]) != 0 {
			rank++
		}
		ranks[i] = rank
	}
	cd.rankVecs[p] = ranks
	return ranks
}

// CmpScore totally orders float64 scores with NaN first as its own
// class — the canonical score order the rank transform sorts by. The
// engine's cross-shard stream shares it so raw coordinates order
// identically everywhere.
func CmpScore(a, b float64) int { return cmpScore(a, b) }

// cmpScore totally orders float64 scores with NaN first as its own class.
func cmpScore(a, b float64) int {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Compilable reports whether the term is inside the compiled fragment:
// every built-in base and complex constructor of the library. Foreign
// Preference implementations (and Scorers outside the built-in set) are
// not, and evaluate through the interface path.
func Compilable(p Preference) bool {
	switch q := p.(type) {
	case *Around, *Between, *Lowest, *Highest, *Score,
		*Pos, *Neg, *PosNeg, *PosPos, *AntiChainPref,
		*Explicit, *LinearSumPref:
		return true
	case *RankPref:
		for _, part := range q.Parts() {
			if !Compilable(part) {
				return false
			}
		}
		return true
	case *DualPref:
		return Compilable(q.Inner())
	case *ParetoPref:
		return Compilable(q.Left()) && Compilable(q.Right())
	case *PrioritizedPref:
		return Compilable(q.Left()) && Compilable(q.Right())
	case *IntersectionPref:
		return Compilable(q.Left()) && Compilable(q.Right())
	case *DisjointUnionPref:
		return Compilable(q.Left()) && Compilable(q.Right())
	case *ProductPref:
		for _, part := range q.Parts() {
			if !Compilable(part) {
				return false
			}
		}
		return true
	}
	return false
}

// CompiledKeyed reports whether the compiled form of the term will carry
// SortKeys: scorer and level leaves are scalar-keyed, Pareto accumulations
// of scalars sum, prioritized accumulations concatenate. This is a strict
// superset of the interpreted keyColumns fragment (level preferences such as
// POS are weak orders, so their negated level is a valid scalar key); the
// planner uses it to classify shapes for compiled evaluation.
func CompiledKeyed(p Preference) bool {
	return Compilable(p) && keyedShape(p)
}

func keyedShape(p Preference) bool {
	if q, ok := p.(*PrioritizedPref); ok {
		return keyedShape(q.Left()) && keyedShape(q.Right())
	}
	return scalarShape(p)
}

func scalarShape(p Preference) bool {
	switch q := p.(type) {
	case *Around, *Between, *Lowest, *Highest, *Score, *RankPref,
		*Pos, *Neg, *PosNeg, *PosPos, *AntiChainPref:
		return true
	case *ParetoPref:
		return scalarShape(q.Left()) && scalarShape(q.Right())
	case *ProductPref:
		for _, part := range q.Parts() {
			if !scalarShape(part) {
				return false
			}
		}
		return true
	}
	return false
}

// maxOrdinalDim caps the dictionary size of ordinal-coded layers
// (EXPLICIT graphs, linear sums): the precomputed pairwise matrix is
// m×m bools, and a discrete layer with thousands of distinct values is
// better served by the interface path than by a megabyte of matrix.
const maxOrdinalDim = 512

// cnode is one node of the compiled evaluation tree.
type cnode interface {
	less(i, j int) bool
}

// neverNode ranks nothing (anti-chains, Definition 3b).
type neverNode struct{}

func (neverNode) less(i, j int) bool { return false }

// scoreNode evaluates i <P j as s[i] < s[j] over a materialized "higher is
// better" vector, guarded by the per-row attribute presence mask (a row
// without the attribute is unranked against everything). pres == nil means
// every row has the attribute.
type scoreNode struct {
	pres []bool
	s    []float64
}

func (n *scoreNode) less(i, j int) bool {
	if n.pres != nil && (!n.pres[i] || !n.pres[j]) {
		return false
	}
	return n.s[i] < n.s[j]
}

// matrixNode evaluates a discrete layer through ordinal codes and a
// precomputed pairwise better-than matrix: code[i] indexes the distinct
// values of the column, mat[code[i]*m+code[j]] caches Less on the value
// pair. EXPLICIT graphs and linear sums compile here.
type matrixNode struct {
	pres []bool
	code []int32
	m    int
	mat  []bool
}

func (n *matrixNode) less(i, j int) bool {
	if n.pres != nil && (!n.pres[i] || !n.pres[j]) {
		return false
	}
	return n.mat[int(n.code[i])*n.m+int(n.code[j])]
}

// dualNode swaps the argument order (Definition 3c).
type dualNode struct{ inner cnode }

func (n *dualNode) less(i, j int) bool { return n.inner.less(j, i) }

// andNode is intersection ♦ (Definition 11a).
type andNode struct{ l, r cnode }

func (n *andNode) less(i, j int) bool { return n.l.less(i, j) && n.r.less(i, j) }

// orNode is disjoint union + (Definition 11b).
type orNode struct{ l, r cnode }

func (n *orNode) less(i, j int) bool { return n.l.less(i, j) || n.r.less(i, j) }

// prioNode is prioritized accumulation & (Definition 9); eq1 holds the
// tie operands of P1's attribute set.
type prioNode struct {
	l, r cnode
	eq1  []Tie
}

func (n *prioNode) less(i, j int) bool {
	if n.l.less(i, j) {
		return true
	}
	return eqAll(n.eq1, i, j) && n.r.less(i, j)
}

// paretoNode is Pareto accumulation ⊗ (Definition 8); eqL/eqR hold the
// tie operands of the left/right attribute sets.
type paretoNode struct {
	l, r     cnode
	eqL, eqR []Tie
}

func (n *paretoNode) less(i, j int) bool {
	b := n.l.less(i, j)
	d := n.r.less(i, j)
	if b && d {
		return true
	}
	if b && eqAll(n.eqR, i, j) {
		return true
	}
	if d && eqAll(n.eqL, i, j) {
		return true
	}
	return false
}

// productNode is the n-ary coordinate-wise Pareto accumulation.
type productNode struct {
	parts []cnode
	eqs   [][]Tie
}

func (n *productNode) less(i, j int) bool {
	strict := false
	for k, part := range n.parts {
		switch {
		case part.less(i, j):
			strict = true
		case eqAll(n.eqs[k], i, j):
		default:
			return false
		}
	}
	return strict
}

// eqAll reports projection equality of rows i and j on every attribute of
// the set.
func eqAll(ties []Tie, i, j int) bool {
	for _, t := range ties {
		if !t.Equal(i, j) {
			return false
		}
	}
	return true
}

// compiler carries the per-Source bind state: one pass per leaf over the
// rows, shared equality/presence columns, and the boxed tuple views
// allocated at most once.
type compiler struct {
	src       Source
	n         int
	tuples    []Tuple
	eqVecs    map[string][]uint32
	presVecs  map[string][]bool
	scoreVecs map[Preference][]float64
	scoreInf  map[Preference]InfCollapse
}

// vector returns a fresh score vector of the source's length whose every
// element the caller overwrites: lent by the source when it lends, an
// allocation otherwise.
func (c *compiler) vector() []float64 {
	if l, ok := c.src.(FloatLender); ok {
		return l.LendFloats(c.n)
	}
	return make([]float64, c.n)
}

func (c *compiler) ensureTuples() []Tuple {
	if c.tuples == nil {
		c.tuples = make([]Tuple, c.n)
		for i := range c.tuples {
			c.tuples[i] = c.src.Tuple(i)
		}
	}
	return c.tuples
}

// presence returns the per-row attribute presence mask, or nil when the
// attribute is present in every row (the invariable case over a schema-
// backed relation).
func (c *compiler) presence(attr string) []bool {
	if mask, ok := c.presVecs[attr]; ok {
		return mask
	}
	if rs, ok := c.src.(Resolver); ok && rs.Resolves(attr) {
		// Every row resolves the attribute: the mask is nil without boxing
		// a single tuple view or deriving a column.
		c.presVecs[attr] = nil
		return nil
	}
	tuples := c.ensureTuples()
	all := true
	mask := make([]bool, c.n)
	for i, t := range tuples {
		_, ok := t.Get(attr)
		mask[i] = ok
		all = all && ok
	}
	if all {
		mask = nil
	}
	c.presVecs[attr] = mask
	return mask
}

// eqVec returns the attribute's equality-code column: rows carry equal
// codes exactly when EqualOn holds for the attribute (canonical ValueKey
// identity, absent rows sharing the reserved code 0). Sources with typed
// column storage supply cached codes directly. Only what needs class ids
// asks for it: the once-per-class leaves, and the ties of attributes whose
// equality no float image decides (see tie).
func (c *compiler) eqVec(attr string) []uint32 {
	if v, ok := c.eqVecs[attr]; ok {
		return v
	}
	if ec, ok := c.src.(EqColumner); ok {
		if codes, ok := ec.EqColumn(attr); ok {
			c.eqVecs[attr] = codes
			return codes
		}
	}
	tuples := c.ensureTuples()
	codes := make([]uint32, c.n)
	dict := make(map[string]uint32)
	next := uint32(1)
	for i, t := range tuples {
		v, ok := t.Get(attr)
		if !ok {
			codes[i] = 0
			continue
		}
		if n, isNum := numeric(v); isNum && math.IsNaN(n) {
			// NaN is unequal to everything including itself under
			// EqualValues; every occurrence forms its own class (ValueKey
			// would collapse them).
			codes[i] = next
			next++
			continue
		}
		k := ValueKey(v)
		code, hit := dict[k]
		if !hit {
			code = next
			next++
			dict[k] = code
		}
		codes[i] = code
	}
	c.eqVecs[attr] = codes
	return codes
}

// numericColumn returns the attribute's float image when that image
// decides value equality: an INT/FLOAT column of a NumericColumner source.
func (c *compiler) numericColumn(attr string) (vals []float64, onScale []bool, ok bool) {
	if nc, isNC := c.src.(NumericColumner); isNC {
		return nc.NumericColumn(attr)
	}
	return nil, nil, false
}

// tie returns the attribute's projection-equality operand: the column's
// float image where it decides value equality (no dictionary is built,
// the image is shared by reference), equality codes otherwise.
func (c *compiler) tie(attr string) Tie {
	if vals, onScale, ok := c.numericColumn(attr); ok {
		return Tie{Val: vals, On: onScale}
	}
	return Tie{Code: c.eqVec(attr)}
}

// eqSet returns the tie operands of an attribute set.
func (c *compiler) eqSet(attrs []string) []Tie {
	out := make([]Tie, len(attrs))
	for k, a := range attrs {
		out[k] = c.tie(a)
	}
	return out
}

// scoreFromColumn materializes a scorer leaf from a typed float column
// when the source has one: a vector map with no boxing and no type
// switches. score maps the on-scale value; off-scale rows score −Inf. An
// identity score (HIGHEST) over a column whose every row is on scale is
// the column's image itself, shared instead of copied: the image is
// immutable for the source's lifetime (per generation, or per gathered
// slab), as a lent vector is.
func (c *compiler) scoreFromColumn(attr string, score scaleScore) (*scoreNode, InfCollapse, bool) {
	fc, ok := c.src.(FloatColumner)
	if !ok {
		return nil, InfCollapse{}, false
	}
	vals, onScale, ok := fc.FloatColumn(attr)
	if !ok {
		return nil, InfCollapse{}, false
	}
	shared := score.kind == scaleValue && !slices.Contains(onScale, false)
	s := vals
	if !shared {
		s = c.vector()
	}
	// Coordinate dominance reads a score tie as a value tie, which holds
	// only where the scale image decides value equality: a TIME column's
	// image is truncated to seconds, so instants within one second tie on
	// it without being equal.
	_, _, exact := c.numericColumn(attr)
	ic := InfCollapse{Exact: exact}
	for i := range s {
		switch {
		case shared: // s is the image: read for the witnesses, never written
		case !onScale[i]:
			s[i] = math.Inf(-1)
		default:
			s[i] = score.of(vals[i])
		}
		if math.IsInf(s[i], 0) {
			key := offScaleClass
			if onScale[i] {
				// vals is the canonical numeric scale, so ValueKey here
				// agrees with ValueKey on the boxed domain value.
				key = ValueKey(vals[i])
			}
			ic.note(s[i] > 0, key)
		}
	}
	return &scoreNode{s: s}, ic, true
}

// offScaleClass is the collapse witness of rows without a scoreable value
// (absent attribute, NULL, off-scale type) — one shared equality class,
// matching the reserved equality code the predicate ties them under.
const offScaleClass = "\x00off"

// scoreFromValues materializes a scorer leaf through the generic tuple
// path: one Get and one score call per row, once.
func (c *compiler) scoreFromValues(attr string, score func(Value) float64) (*scoreNode, InfCollapse) {
	tuples := c.ensureTuples()
	pres := c.presence(attr)
	s := c.vector()
	ic := InfCollapse{Exact: true}
	for i, t := range tuples {
		v, ok := t.Get(attr)
		if !ok {
			s[i] = math.Inf(-1)
			ic.note(false, offScaleClass)
			continue
		}
		s[i] = score(v)
		if _, instant := v.(time.Time); instant {
			ic.Exact = false // the seconds scale ties unequal instants
		}
		if math.IsInf(s[i], 0) {
			key := offScaleClass
			if v != nil {
				key = ValueKey(v)
			}
			ic.note(s[i] > 0, key)
		}
	}
	return &scoreNode{pres: pres, s: s}, ic
}

// scorerLeaf compiles one built-in scorer, preferring the typed column
// path (score scores an on-scale column value) over the boxed values, and
// registers the score vector — with its infinite-score collapse record —
// under the term's identity.
func (c *compiler) scorerLeaf(p Preference, attr string, score scaleScore) cnode {
	node, ic, ok := c.scoreFromColumn(attr, score)
	if !ok {
		node, ic = c.scoreFromValues(attr, valueScore(p))
	}
	c.scoreVecs[p] = node.s
	c.scoreInf[p] = ic
	return node
}

// codedScorerLeaf compiles a SCORE leaf through the attribute's equality
// codes: the opaque scoring function runs once per distinct value class
// (ordinal coding) instead of once per row — the win for low-cardinality
// string dimensions, which rank(F)'s threshold algorithm reads as sorted
// feature lists. Scoring per class is sound because a scoring function is
// a function of the domain value and rows share a code exactly when their
// values are equal in the EqualValues sense (each NaN is its own class,
// so NaN rows still score individually). Only sources with cached
// equality codes (EqColumner) take this path: deriving codes through the
// generic ValueKey dictionary would cost a string format per row, more
// than the per-row score call it saves.
func (c *compiler) codedScorerLeaf(p Preference, attr string, score func(Value) float64) cnode {
	hasCodes := false
	if ec, ok := c.src.(EqColumner); ok {
		_, hasCodes = ec.EqColumn(attr)
	}
	if !hasCodes {
		// No scoreInf record: an opaque scoring function can tie distinct
		// classes at finite scores too, so its vector never claims the
		// coordinate-dominance exactness of the monotone built-ins.
		node, _ := c.scoreFromValues(attr, score)
		c.scoreVecs[p] = node.s
		return node
	}
	return c.classScoreLeaf(p, attr, score)
}

// classScoreLeaf is the shared once-per-equality-class materialization
// kernel of the POS-family layers and codedScorerLeaf: score runs once per
// distinct value class of the attribute's equality codes, with one tuple
// view per class (not per row) and −Inf for rows lacking the attribute.
func (c *compiler) classScoreLeaf(p Preference, attr string, score func(Value) float64) cnode {
	pres := c.presence(attr)
	codes := c.eqVec(attr)
	s := c.vector()
	byCode := make([]float64, c.n+2) // codes are dense and bounded by n+1
	seen := make([]bool, c.n+2)
	for i := 0; i < c.n; i++ {
		if pres != nil && !pres[i] {
			s[i] = math.Inf(-1)
			continue
		}
		code := codes[i]
		if !seen[code] {
			v, _ := c.src.Tuple(i).Get(attr)
			byCode[code] = score(v)
			seen[code] = true
		}
		s[i] = byCode[code]
	}
	node := &scoreNode{pres: pres, s: s}
	c.scoreVecs[p] = node.s
	return node
}

// matrixLeaf compiles a discrete single-attribute layer by dictionary-
// coding the column's distinct values and caching Less on every value
// pair. It fails beyond maxOrdinalDim distinct values.
func (c *compiler) matrixLeaf(p Preference, attr string) (cnode, bool) {
	tuples := c.ensureTuples()
	pres := c.presence(attr)
	codes := make([]int32, c.n)
	dict := make(map[string]int32)
	var vals []Value
	for i, t := range tuples {
		v, ok := t.Get(attr)
		if !ok {
			continue
		}
		k := ValueKey(v)
		code, hit := dict[k]
		if !hit {
			code = int32(len(vals))
			dict[k] = code
			vals = append(vals, v)
			if len(vals) > maxOrdinalDim {
				return nil, false
			}
		}
		codes[i] = code
	}
	m := len(vals)
	mat := make([]bool, m*m)
	for a := 0; a < m; a++ {
		xa := Single{Attr: attr, Value: vals[a]}
		for b := 0; b < m; b++ {
			mat[a*m+b] = p.Less(xa, Single{Attr: attr, Value: vals[b]})
		}
	}
	return &matrixNode{pres: pres, code: codes, m: m, mat: mat}, true
}

// scaleScore is a built-in scorer's score of an on-scale column value,
// held as data — the bind loops call nothing per row.
type scaleScore struct {
	kind   scaleKind
	lo, up float64 // AROUND: the target in lo; BETWEEN: the interval
}

// scaleKind names the score function of a scaleScore.
type scaleKind uint8

// The built-in scorers' scale scores.
const (
	scaleValue   scaleKind = iota // HIGHEST: the value itself
	scaleNegated                  // LOWEST: −v
	scaleAround                   // AROUND z: −|v − z|
	scaleBetween                  // BETWEEN [lo, up]: minus the distance to the interval
)

// of scores the on-scale value v.
func (f scaleScore) of(v float64) float64 {
	switch f.kind {
	case scaleNegated:
		return -v
	case scaleAround:
		return -math.Abs(v - f.lo)
	case scaleBetween:
		switch {
		case v < f.lo:
			return v - f.lo
		case v > f.up:
			return f.up - v
		}
		return 0
	}
	return v
}

// scorerOf returns a built-in scorer leaf's attribute with its score of an
// on-scale column value; ok=false for every other term.
func scorerOf(p Preference) (attr string, score scaleScore, ok bool) {
	switch q := p.(type) {
	case *Lowest:
		return q.Attr(), scaleScore{kind: scaleNegated}, true
	case *Highest:
		return q.Attr(), scaleScore{kind: scaleValue}, true
	case *Around:
		return q.Attr(), scaleScore{kind: scaleAround, lo: q.z}, true
	case *Between:
		return q.Attr(), scaleScore{kind: scaleBetween, lo: q.low, up: q.up}, true
	}
	return "", scaleScore{}, false
}

// valueScore is a scorer leaf's score of a boxed value: the path of
// sources without a float image of the attribute.
func valueScore(p Preference) func(Value) float64 {
	switch q := p.(type) {
	case *Lowest:
		return func(v Value) float64 {
			n, ok := toScale(v)
			if !ok {
				return math.Inf(-1)
			}
			return -n
		}
	case *Highest:
		return func(v Value) float64 {
			n, ok := toScale(v)
			if !ok {
				return math.Inf(-1)
			}
			return n
		}
	case *Around:
		return func(v Value) float64 { return -q.Distance(v) }
	case *Between:
		return func(v Value) float64 { return -q.Distance(v) }
	}
	return nil // scorerOf's leaves only
}

// classOf returns a leaf's attribute with its score of a domain value, for
// the leaves scored once per value class: SCORE, and the POS-family layers
// as their negated level — the Definition 6 orders are weak orders by
// level, so i <P j iff level(i) > level(j) iff −level(i) < −level(j).
// ok=false for every other term.
func classOf(p Preference) (attr string, score func(Value) float64, ok bool) {
	var level func(Value) int
	switch q := p.(type) {
	case *Score:
		return q.Attr(), func(v Value) float64 { return q.f(v) }, true
	case *Pos:
		level = func(v Value) int {
			if q.posSet.Contains(v) {
				return 0
			}
			return 1
		}
	case *Neg:
		level = func(v Value) int {
			if q.negSet.Contains(v) {
				return 1
			}
			return 0
		}
	case *PosNeg:
		level = func(v Value) int {
			switch {
			case q.posSet.Contains(v):
				return 0
			case q.negSet.Contains(v):
				return 2
			}
			return 1
		}
	case *PosPos:
		level = func(v Value) int {
			switch {
			case q.pos1.Contains(v):
				return 0
			case q.pos2.Contains(v):
				return 1
			}
			return 2
		}
	default:
		return "", nil, false
	}
	return p.Attrs()[0], func(v Value) float64 { return -float64(level(v)) }, true
}

// compile lowers one term of the compilable fragment.
func (c *compiler) compile(p Preference) (cnode, bool) {
	if attr, score, ok := scorerOf(p); ok {
		return c.scorerLeaf(p, attr, score), true
	}
	if attr, score, ok := classOf(p); ok {
		if _, coded := p.(*Score); coded {
			return c.codedScorerLeaf(p, attr, score), true
		}
		// The level function runs once per distinct value (via the
		// equality codes), not once per row.
		return c.classScoreLeaf(p, attr, score), true
	}
	switch q := p.(type) {
	case *RankPref:
		return c.compileRank(q)
	case *Explicit:
		return c.matrixLeaf(q, q.Attr())
	case *LinearSumPref:
		return c.matrixLeaf(q, q.Attrs()[0])
	case *AntiChainPref:
		c.scoreVecs[q] = make([]float64, c.n)
		return neverNode{}, true
	case *DualPref:
		inner, ok := c.compile(q.Inner())
		if !ok {
			return nil, false
		}
		return &dualNode{inner}, true
	case *ParetoPref:
		l, ok1 := c.compile(q.Left())
		r, ok2 := c.compile(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return &paretoNode{l: l, r: r, eqL: c.eqSet(q.Left().Attrs()), eqR: c.eqSet(q.Right().Attrs())}, true
	case *PrioritizedPref:
		l, ok1 := c.compile(q.Left())
		r, ok2 := c.compile(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return &prioNode{l: l, r: r, eq1: c.eqSet(q.Left().Attrs())}, true
	case *IntersectionPref:
		l, ok1 := c.compile(q.Left())
		r, ok2 := c.compile(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return &andNode{l, r}, true
	case *DisjointUnionPref:
		l, ok1 := c.compile(q.Left())
		r, ok2 := c.compile(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return &orNode{l, r}, true
	case *ProductPref:
		parts := make([]cnode, len(q.Parts()))
		eqs := make([][]Tie, len(q.Parts()))
		for k, part := range q.Parts() {
			node, ok := c.compile(part)
			if !ok {
				return nil, false
			}
			parts[k] = node
			eqs[k] = c.eqSet(part.Attrs())
		}
		return &productNode{parts: parts, eqs: eqs}, true
	}
	return nil, false
}

// compileRank materializes rank(F) by combining the component score
// vectors column-wise: each part compiles first (registering its vector),
// then one combine call per row. RankPref.Less compares combined scores
// with no presence guard, so the node carries none either.
func (c *compiler) compileRank(q *RankPref) (cnode, bool) {
	parts := q.Parts()
	vecs := make([][]float64, len(parts))
	for k, part := range parts {
		if _, ok := c.compile(part); !ok {
			return nil, false
		}
		vec := c.scoreVecs[part]
		if vec == nil {
			return nil, false
		}
		vecs[k] = vec
	}
	s := c.vector()
	scratch := make([]float64, len(parts))
	for i := range s {
		for k := range vecs {
			scratch[k] = vecs[k][i]
		}
		s[i] = q.f(scratch...)
	}
	node := &scoreNode{s: s}
	c.scoreVecs[q] = node.s
	return node, true
}
