package filter

import (
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

// NumericColumner is optionally implemented by sources whose numeric
// (INT/FLOAT) columns are cached as flat float64 arrays (see
// relation.NumericColumn). Unlike pref.FloatColumner it must report
// ok=false for TIME columns: the float image of a time instant is truncated
// to seconds, which would change sub-second comparison results.
type NumericColumner = pref.NumericColumner

// Compiled is the bound form of a predicate over one source: the selected
// positions plus binding statistics. A Compiled is immutable after Compile
// and safe for concurrent readers; it does not observe later source
// mutations.
type Compiled struct {
	n   int
	idx []int

	vector, dict, row int // leaf counts per binding class
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
	cd := &Compiled{n: c.n, idx: idx, vector: c.vector, dict: c.dict, row: c.row}
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

// Mode names the overall binding for EXPLAIN output: "vectorized" when no
// leaf fell back to row-at-a-time evaluation, "row-fallback" otherwise.
func (cd *Compiled) Mode() string {
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
// positions to out in ascending order: a lone vector comparison — the
// shape of a selective range cut — runs its operator's own loop over the
// column, a conjunction scans its left operand and tests the right one on
// the survivors only, anything else tests row by row.
func (c *compiler) scan(nd node, out []int) []int {
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

// cmpVector lowers a numeric comparison to a flat vector test.
func (c *compiler) cmpVector(q *Cmp) (*cmpNode, bool) {
	lit, ok := pref.Numeric(q.Value)
	if !ok {
		return nil, false
	}
	op, ok := cmpOps[q.Op]
	if !ok {
		return nil, false
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
