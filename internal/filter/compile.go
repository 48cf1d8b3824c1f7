package filter

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/pref"
)

// This file implements compiled hard selection: Compile binds a predicate
// tree to a concrete tuple collection once — numeric comparisons become
// flat float64 vector tests, single-attribute discrete conditions evaluate
// once per distinct value through cached equality codes — and evaluates
// it in one pass that emits the selected row positions in ascending
// order. The interpreted path pays a schema-map lookup, a Value interface
// boxing and a type dispatch per attribute per row; the compiled path pays
// them never (vector leaves) or once per distinct value (dictionary
// leaves). Row-at-a-time evaluation remains as the transparent fallback
// for foreign Pred implementations.
//
// The bound form is the position list and nothing else: what a statement
// leaves in the selection cache is sized by its candidates, not by the
// relation.
//
// A range cut over a source that keeps value orders (ValueOrderer) reads
// its candidates instead of its column: one or two binary searches over
// the column's positions in value order bound the selected run, whose
// positions — plus the NaN rows <= and >= admit, plus the rows of the
// order's unindexed tail that pass — are marked in a pooled bitmap and
// emitted ascending, O(k + n/64) for k selected of n rows. A conjunction
// is driven by its ordered bound set with the smallest exact count (bounds
// on one column intersect into one run) and tests its other conjuncts on
// the driver's rows only; a disjunction of ordered comparisons is one
// bitmap. Everything else scans.

// NumericColumner is optionally implemented by sources whose numeric
// (INT/FLOAT) columns are cached as flat float64 arrays (see
// relation.NumericColumn). Unlike pref.FloatColumner it must report
// ok=false for TIME columns: the float image of a time instant is truncated
// to seconds, which would change sub-second comparison results.
type NumericColumner = pref.NumericColumner

// ValueOrder is one numeric column's on-scale rows in value order, as a
// source keeps it for one storage generation: Pos[:Ordered] holds the
// positions of the non-NaN rows below Covers sorted by their float image
// (ties in any order), Pos[Ordered:] the NaN rows below Covers. Rows from
// Covers on are the order's unindexed tail — appended after it was built
// — which a selection tests row by row. Off-scale rows (NULLs) are in
// neither part: they satisfy no comparison.
type ValueOrder struct {
	Pos     []int32
	Ordered int
	Covers  int
}

// ValueOrderer is optionally implemented by sources that keep value
// orders of their numeric (INT/FLOAT) columns. ValueOrder returns what
// NumericColumn returns together with the column's order, all read from
// one storage generation; ord is nil while the source keeps none (a
// source builds an order on the second request for a column, not the
// first). Compile requests an order only for a comparison an order can
// answer: not <>, not a NaN literal.
type ValueOrderer interface {
	ValueOrder(name string) (vals []float64, onScale []bool, ord *ValueOrder, ok bool)
}

// Compiled is the bound form of a predicate over one source: the selected
// positions plus binding statistics. A Compiled is immutable after Compile
// and safe for concurrent readers; it does not observe later source
// mutations.
type Compiled struct {
	n   int
	idx []int

	vector, dict, row int // leaf counts per binding class

	// driver lists the comparisons the selection was read from, one
	// intersected bound set per ordered run (nil for a scan).
	driver [][]*Cmp
}

// Compile binds p to src and evaluates the selection into its ascending
// position list. It never fails: condition nodes outside the vectorizable
// set (and foreign Pred implementations) evaluate row-at-a-time through
// Eval, once, at bind time. The list holds exactly the rows i with
// p.Eval(src.Tuple(i)) — the cross-evaluation property tests assert that.
func Compile(p Pred, src pref.Source) *Compiled {
	c := &compiler{src: src, n: src.Len()}
	root := c.lower(p)
	// The count is not known before the pass (there is no counting pass):
	// the scan emits into a pooled scratch list and the bound form keeps an
	// exact-size copy, so a cached selection holds its candidates and no
	// slack.
	scratch := emitPool.Get().(*[]int)
	emitted := c.scan(root, (*scratch)[:0])
	// Never nil: callers read a nil candidate list as "every row".
	idx := append(make([]int, 0, len(emitted)), emitted...)
	cd := &Compiled{n: c.n, idx: idx, vector: c.vector, dict: c.dict, row: c.row, driver: c.driver}
	*scratch = emitted
	emitPool.Put(scratch)
	return cd
}

// emitPool recycles the scratch lists scans emit into.
var emitPool = sync.Pool{New: func() any { return new([]int) }}

// Len returns the bound row count.
func (cd *Compiled) Len() int { return cd.n }

// Count returns the number of selected rows.
func (cd *Compiled) Count() int { return len(cd.idx) }

// Indices returns the selected row positions in ascending order — empty,
// never nil, when nothing is selected. The slice is shared with every
// reader of a cache-served bound form; callers must not modify it.
func (cd *Compiled) Indices() []int { return cd.idx }

// Vectorized reports whether every leaf bound to typed column vectors or
// dictionary codes — i.e. no tuple was boxed per row anywhere in the tree.
func (cd *Compiled) Vectorized() bool { return cd.row == 0 }

// BindClasses returns the leaf counts per binding class: vector (flat
// float64 comparisons), dict (one evaluation per distinct value through
// equality codes), row (tuple-at-a-time fallback).
func (cd *Compiled) BindClasses() (vector, dict, row int) {
	return cd.vector, cd.dict, cd.row
}

// Mode names the access path for EXPLAIN output: "ordered (driver <bounds>)"
// when the selection was read out of a value order, otherwise the scan's
// binding — "vectorized" when no leaf fell back to row-at-a-time
// evaluation, "row-fallback" otherwise.
func (cd *Compiled) Mode() string {
	if cd.driver != nil {
		runs := make([]string, len(cd.driver))
		for k, bounds := range cd.driver {
			parts := make([]string, len(bounds))
			for j, q := range bounds {
				parts[j] = q.String()
			}
			runs[k] = strings.Join(parts, " AND ")
		}
		return "ordered (driver " + strings.Join(runs, " OR ") + ")"
	}
	if cd.Vectorized() {
		return "vectorized"
	}
	return "row-fallback"
}

// compiler carries the per-source bind state.
type compiler struct {
	src pref.Source
	n   int

	vector, dict, row int
	driver            [][]*Cmp

	// columns memoizes ValueOrder per attribute, so a statement with two
	// bounds on one column is one request for its order, not two.
	columns []orderedColumn
}

// orderedColumn is one ValueOrder answer.
type orderedColumn struct {
	attr    string
	vals    []float64
	onScale []bool
	ord     *ValueOrder
}

// node is one bound condition: test reports whether row i satisfies it.
// Nodes are bind-time state, dropped once the scan has emitted the
// positions.
type node interface {
	test(i int) bool
}

type andNode struct{ l, r node }

func (n *andNode) test(i int) bool { return n.l.test(i) && n.r.test(i) }

type orNode struct{ l, r node }

func (n *orNode) test(i int) bool { return n.l.test(i) || n.r.test(i) }

type notNode struct{ e node }

func (n *notNode) test(i int) bool { return !n.e.test(i) }

// lower binds one node of the predicate tree.
func (c *compiler) lower(p Pred) node {
	switch q := p.(type) {
	case *And:
		return &andNode{c.lower(q.L), c.lower(q.R)}
	case *Or:
		return &orNode{c.lower(q.L), c.lower(q.R)}
	case *Not:
		return &notNode{c.lower(q.E)}
	case *Cmp:
		if v, ok := c.cmpVector(q); ok {
			c.vector++
			return v
		}
		return c.perDistinct(q.Attr, q)
	case *In:
		return c.perDistinct(q.Attr, q)
	case *Like:
		return c.perDistinct(q.Attr, q)
	case *IsNull:
		return c.perDistinct(q.Attr, q)
	}
	return c.perRow(p)
}

// scan evaluates a bound tree in one pass, appending the selected
// positions to out in ascending order: a tree with an ordered driver of at
// most half the rows emits the driver's rows and tests the rest of the
// tree on them only (above half, marking rows in value order costs more
// than the column pass: BenchmarkRangeCut crosses over near 60 %), a lone
// vector comparison — the shape of a selective range cut — runs its
// operator's own loop over the column, a conjunction scans its left
// operand and tests the right one on the survivors only, anything else
// tests row by row.
func (c *compiler) scan(nd node, out []int) []int {
	if runs, rest := drive(nd); runs != nil && 2*total(runs) <= c.n {
		return c.emit(runs, rest, out)
	}
	switch q := nd.(type) {
	case *cmpNode:
		return q.scan(out)
	case *andNode:
		from := len(out)
		out = c.scan(q.l, out)
		keep := out[:from]
		for _, i := range out[from:] {
			if q.r.test(i) {
				keep = append(keep, i)
			}
		}
		return keep
	}
	for i := 0; i < c.n; i++ {
		if nd.test(i) {
			out = append(out, i)
		}
	}
	return out
}

// cmpNode is a numeric comparison bound to a flat column image. The
// comparisons replicate Cmp.Eval exactly, including its NaN semantics:
// CompareValues reports NaN pairs as neither smaller nor greater, so <=
// and >= hold for them while < and > do not. Off-scale rows (NULLs)
// satisfy no comparison.
type cmpNode struct {
	vals    []float64
	onScale []bool
	op      cmpOp
	lit     float64

	// With an order, the comparison selects ord.Pos[lo:hi], the NaN rows
	// when nan, and the tail rows test passes.
	q      *Cmp
	ord    *ValueOrder
	lo, hi int
	nan    bool
}

type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpOps = map[string]cmpOp{"=": opEq, "<>": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}

func (n *cmpNode) test(i int) bool {
	if !n.onScale[i] {
		return false
	}
	v := n.vals[i]
	switch n.op {
	case opEq:
		return v == n.lit
	case opNe:
		return v != n.lit
	case opLt:
		return v < n.lit
	case opLe:
		return !(v > n.lit)
	case opGt:
		return v > n.lit
	}
	return !(v < n.lit)
}

// scan appends the positions the comparison selects to out: one loop per
// operator, so the column pass carries no dispatch.
func (n *cmpNode) scan(out []int) []int {
	on, lit := n.onScale, n.lit
	switch n.op {
	case opEq:
		for i, v := range n.vals {
			if on[i] && v == lit {
				out = append(out, i)
			}
		}
	case opNe:
		for i, v := range n.vals {
			if on[i] && v != lit {
				out = append(out, i)
			}
		}
	case opLt:
		for i, v := range n.vals {
			if on[i] && v < lit {
				out = append(out, i)
			}
		}
	case opLe:
		for i, v := range n.vals {
			if on[i] && !(v > lit) {
				out = append(out, i)
			}
		}
	case opGt:
		for i, v := range n.vals {
			if on[i] && v > lit {
				out = append(out, i)
			}
		}
	case opGe:
		for i, v := range n.vals {
			if on[i] && !(v < lit) {
				out = append(out, i)
			}
		}
	}
	return out
}

// cmpVector lowers a numeric comparison to a flat vector test, bounded on
// the column's value order when the source keeps one.
func (c *compiler) cmpVector(q *Cmp) (*cmpNode, bool) {
	lit, ok := pref.Numeric(q.Value)
	if !ok {
		return nil, false
	}
	op, ok := cmpOps[q.Op]
	if !ok {
		return nil, false
	}
	// A NaN literal and <> select by what a row is not — no run of the
	// order holds their answer — so they never request one.
	if vo, ok := c.src.(ValueOrderer); ok && op != opNe && !math.IsNaN(lit) {
		k := slices.IndexFunc(c.columns, func(col orderedColumn) bool { return col.attr == q.Attr })
		if k < 0 {
			col := orderedColumn{attr: q.Attr}
			var ok bool
			col.vals, col.onScale, col.ord, ok = vo.ValueOrder(q.Attr)
			if !ok {
				return nil, false
			}
			k = len(c.columns)
			c.columns = append(c.columns, col)
		}
		col := c.columns[k]
		n := &cmpNode{vals: col.vals, onScale: col.onScale, op: op, lit: lit, q: q}
		if col.ord != nil {
			n.bound(col.ord)
		}
		return n, true
	}
	nc, ok := c.src.(NumericColumner)
	if !ok {
		return nil, false
	}
	vals, onScale, ok := nc.NumericColumn(q.Attr)
	if !ok {
		return nil, false
	}
	return &cmpNode{vals: vals, onScale: onScale, op: op, lit: lit}, true
}

// bound locates the comparison's run in the order's non-NaN part: the
// first position not below the literal and the first above it bound every
// operator the order answers. NaN rows satisfy <= and >= (Cmp.Eval's
// CompareValues reports a NaN pair as neither smaller nor greater).
func (n *cmpNode) bound(o *ValueOrder) {
	ordered := o.Pos[:o.Ordered]
	ge := search(ordered, n.vals, func(v float64) bool { return v >= n.lit })
	gt := search(ordered, n.vals, func(v float64) bool { return v > n.lit })
	n.ord = o
	switch n.op {
	case opEq:
		n.lo, n.hi = ge, gt
	case opLt:
		n.lo, n.hi = 0, ge
	case opLe:
		n.lo, n.hi, n.nan = 0, gt, true
	case opGt:
		n.lo, n.hi = gt, len(ordered)
	case opGe:
		n.lo, n.hi, n.nan = ge, len(ordered), true
	}
}

// search returns the first index m of pos with past(vals[pos[m]]) — pos
// ascends by value, so past is false up to m and true from m on.
func search(pos []int32, vals []float64, past func(float64) bool) int {
	lo, hi := 0, len(pos)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if past(vals[pos[m]]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// run is one ordered selection: the rows at ord.Pos[lo:hi], the order's
// NaN rows when nan, and the tail rows that pass every bound intersected
// into it (all on the one column the order sorts).
type run struct {
	ord    *ValueOrder
	lo, hi int
	nan    bool
	bounds []*cmpNode
}

// count is the run's exact row count over the order plus its tail length.
func (r *run) count() int {
	k := r.hi - r.lo + len(r.bounds[0].vals) - r.ord.Covers
	if r.nan {
		k += len(r.ord.Pos) - r.ord.Ordered
	}
	return k
}

// intersect narrows the run by one more bound on its column.
func (r *run) intersect(b *cmpNode) {
	r.lo, r.hi, r.nan = max(r.lo, b.lo), min(r.hi, b.hi), r.nan && b.nan
	r.hi = max(r.hi, r.lo)
	r.bounds = append(r.bounds, b)
}

// mark sets the run's rows in bits.
func (r *run) mark(bits []uint64) {
	for _, p := range r.ord.Pos[r.lo:r.hi] {
		bits[p>>6] |= 1 << (p & 63)
	}
	if r.nan {
		for _, p := range r.ord.Pos[r.ord.Ordered:] {
			bits[p>>6] |= 1 << (p & 63)
		}
	}
tail:
	for i := r.ord.Covers; i < len(r.bounds[0].vals); i++ {
		for _, b := range r.bounds {
			if !b.test(i) {
				continue tail
			}
		}
		bits[i>>6] |= 1 << (i & 63)
	}
}

// run is the comparison's ordered selection, before any intersection.
func (n *cmpNode) run() *run {
	return &run{ord: n.ord, lo: n.lo, hi: n.hi, nan: n.nan, bounds: []*cmpNode{n}}
}

// drive picks the ordered runs a tree's selection can be read from, with
// the nodes each of their rows must still pass: a disjunction whose
// disjuncts are all ordered comparisons is the union of their runs; a
// conjunction (a lone comparison is one of a single conjunct) is driven by
// the run of smallest count among its ordered conjuncts (bounds on one
// column intersected), the other conjuncts left to test. nil runs means
// scan.
func drive(nd node) (runs []*run, rest []node) {
	if disj := disjuncts(nd); len(disj) > 1 {
		for _, n := range disj {
			b, ok := n.(*cmpNode)
			if !ok || b.ord == nil {
				return nil, nil
			}
			runs = append(runs, b.run())
		}
		return runs, nil
	}
	conj := conjuncts(nd)
	var cols []*run
conjuncts:
	for _, n := range conj {
		b, ok := n.(*cmpNode)
		if !ok || b.ord == nil {
			continue
		}
		for _, r := range cols {
			if r.ord == b.ord {
				r.intersect(b)
				continue conjuncts
			}
		}
		cols = append(cols, b.run())
	}
	if len(cols) == 0 {
		return nil, nil
	}
	best := cols[0]
	for _, r := range cols[1:] {
		if r.count() < best.count() {
			best = r
		}
	}
	for _, n := range conj {
		if b, ok := n.(*cmpNode); !ok || b.ord != best.ord {
			rest = append(rest, n)
		}
	}
	return []*run{best}, rest
}

// total sums the runs' counts.
func total(runs []*run) int {
	k := 0
	for _, r := range runs {
		k += r.count()
	}
	return k
}

// conjuncts lists the operands of a chain of conjunctions, left to right
// (a node that is no conjunction is its own one operand).
func conjuncts(nd node) []node {
	if a, ok := nd.(*andNode); ok {
		return append(conjuncts(a.l), conjuncts(a.r)...)
	}
	return []node{nd}
}

// disjuncts is conjuncts for a chain of disjunctions.
func disjuncts(nd node) []node {
	if o, ok := nd.(*orNode); ok {
		return append(disjuncts(o.l), disjuncts(o.r)...)
	}
	return []node{nd}
}

// emit marks the runs' rows in a pooled bitmap and appends, in ascending
// order, those that pass every node of rest. The bitmap is cleared word by
// word as it is read, so it returns to the pool zeroed.
func (c *compiler) emit(runs []*run, rest []node, out []int) []int {
	if c.driver == nil {
		c.driver = make([][]*Cmp, len(runs))
		for k, r := range runs {
			for _, b := range r.bounds {
				c.driver[k] = append(c.driver[k], b.q)
			}
		}
	}
	words := (c.n + 63) >> 6
	bp := bitsPool.Get().(*[]uint64)
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	set := (*bp)[:words]
	for _, r := range runs {
		r.mark(set)
	}
	for w, word := range set {
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if passes(rest, i) {
				out = append(out, i)
			}
		}
		set[w] = 0
	}
	bitsPool.Put(bp)
	return out
}

// bitsPool recycles the zeroed bitmaps ordered selections mark rows in.
var bitsPool = sync.Pool{New: func() any { return new([]uint64) }}

// passes reports whether row i satisfies every node.
func passes(nodes []node, i int) bool {
	for _, n := range nodes {
		if !n.test(i) {
			return false
		}
	}
	return true
}

// dictNode evaluates a single-attribute condition once per distinct
// value of the column: rows with equal equality codes carry EqualValues-
// equal values, so the condition's verdict is shared. Codes are dense
// and bounded by the row count (one new class per row at most), so a flat
// verdict table replaces a hash map; a class is evaluated on the first of
// its rows a test reaches.
type dictNode struct {
	src     pref.Source
	p       Pred
	codes   []uint32
	verdict []uint8 // by code: 0 unknown, verdictYes, verdictNo
}

const (
	verdictYes = 1
	verdictNo  = 2
)

func (n *dictNode) test(i int) bool {
	code := n.codes[i]
	v := n.verdict[code]
	if v == 0 {
		v = verdictNo
		if n.p.Eval(n.src.Tuple(i)) {
			v = verdictYes
		}
		n.verdict[code] = v
	}
	return v == verdictYes
}

// perDistinct binds a single-attribute condition through the column's
// equality codes; it falls back to perRow when the source has none for
// the attribute.
func (c *compiler) perDistinct(attr string, p Pred) node {
	ec, ok := c.src.(pref.EqColumner)
	if !ok {
		return c.perRow(p)
	}
	codes, ok := ec.EqColumn(attr)
	if !ok {
		return c.perRow(p)
	}
	c.dict++
	return &dictNode{src: c.src, p: p, codes: codes, verdict: make([]uint8, c.n+2)}
}

// rowNode is the interpreted fallback: one boxed tuple evaluation per row
// a test reaches, at bind time.
type rowNode struct {
	src pref.Source
	p   Pred
}

func (n *rowNode) test(i int) bool { return n.p.Eval(n.src.Tuple(i)) }

func (c *compiler) perRow(p Pred) node {
	c.row++
	return &rowNode{src: c.src, p: p}
}
