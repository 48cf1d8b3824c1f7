package engine

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Sorted-access pruning of a whole-shard BMO step: the sorted-access
// skyline of Balke, Güntzer and Zheng (EDBT 2004) over the value orders a
// generation keeps (relation.ValueOrder). Pareto (Def. 8) and prioritized
// (Def. 9) accumulation share one property: a row that another row beats
// strictly on every leaf is no best match, under any nesting of ⊗ and &.
// So when every leaf of a flat term is LOWEST, HIGHEST, AROUND or BETWEEN
// over an INT or FLOAT column with a kept order, each leaf walks its order
// in score order — LOWEST ascending, HIGHEST descending, AROUND z and
// BETWEEN [l, u] with two pointers outward from the search point of z or
// l — one step each, round-robin, until one row o has been seen by every
// walk; each walk then finishes its tie run. A row no walk reached scores
// strictly below the end of every walk's tie run, so strictly below o, on
// every leaf (an off-scale row scores −Inf, below any on-scale o; a walk
// whose tie run ends at −Inf therefore gives up), and is dominated. The
// candidates are the rows the walks saw, each order's NaN rows
// (incomparable, always kept) and each order's unindexed tail; their
// maxima are the whole shard's. The float image is what every comparison
// reads, so INTs beyond 2^53 that share an image are ties and the tie run
// covers them.
//
// The walk gives up — the shard binds whole — once its candidates pass
// relation.GatherLimit, the rule every gathered bind follows: past it the
// gathered bind would not pay.

// WalkOutcome names what a shard's sorted walk did.
type WalkOutcome int

// Walk outcomes.
const (
	// WalkNone: the term does not walk — a leaf outside LOWEST, HIGHEST,
	// AROUND and BETWEEN, a column that is not INT or FLOAT, or a NaN or
	// infinite target. The shard binds whole.
	WalkNone WalkOutcome = iota
	// WalkNoOrder: the term walks, but a column has no value order kept
	// yet (its first request only marks it). The shard binds whole.
	WalkNoOrder
	// WalkGaveUp: the walk passed its limit, or its orders ran out before
	// one row was seen by every walk. The shard binds whole.
	WalkGaveUp
	// WalkPruned: the shard binds over the walk's candidates.
	WalkPruned
)

// Walk reports a shard's sorted walk: its outcome, the walked columns
// (each once, in leaf order; nil for WalkNone), those of them without a
// value order (WalkNoOrder) and the candidate count past which it gives
// up.
type Walk struct {
	Outcome   WalkOutcome
	Attrs     []string
	Unordered []string
	Limit     int
}

// ProbeWalk returns the candidates and the outcome of the sorted walk a
// whole-shard BMO step over r runs next, read from probed value orders
// (relation.ProbeValueOrder): it marks and keeps nothing. The candidates
// are nil unless the outcome is WalkPruned. EXPLAIN reports it.
func ProbeWalk(p pref.Preference, r *relation.Relation) ([]int, Walk) {
	return walkShard(p, r, relation.GatherLimit(r.Len()), true)
}

// wholeShard returns the rows a whole-shard BMO step over r binds: the
// sorted walk's candidates when it prunes, every row otherwise.
func wholeShard(p pref.Preference, r *relation.Relation) []int {
	if cand, w := walkShard(p, r, relation.GatherLimit(r.Len()), false); w.Outcome == WalkPruned {
		return cand
	}
	return allIndices(r.Len())
}

// walkShard runs the sorted walk of p over r's kept value orders (probe:
// over probed ones), giving up past limit candidates. It returns the
// candidates, ascending, when the walk pruned.
func walkShard(p pref.Preference, r *relation.Relation, limit int, probe bool) ([]int, Walk) {
	leaves, ok := pref.ScaleLeaves(p)
	if !ok || len(leaves) > math.MaxUint8 || r.Len() == 0 {
		return nil, Walk{}
	}
	schema := r.Schema()
	var w Walk
	for _, l := range leaves {
		if !finiteTarget(l.Leaf) {
			return nil, Walk{}
		}
		ci, ok := schema.Index(l.Attr)
		if !ok {
			return nil, Walk{}
		}
		if t := schema.Col(ci).Type; t != relation.Int && t != relation.Float {
			return nil, Walk{}
		}
		if !slices.Contains(w.Attrs, l.Attr) {
			w.Attrs = append(w.Attrs, l.Attr)
		}
	}
	// One request per column, every column requested: a statement marks
	// (or builds) the orders of all its columns at once.
	vals := make([][]float64, len(w.Attrs))
	orders := make([]*filter.ValueOrder, len(w.Attrs))
	w.Outcome = WalkPruned
	for k, attr := range w.Attrs {
		get := r.ValueOrder
		if probe {
			get = r.ProbeValueOrder
		}
		v, _, ord, ok := get(attr)
		if !ok || (k > 0 && len(v) != len(vals[0])) {
			return nil, Walk{} // a generation published between two requests
		}
		vals[k], orders[k] = v, ord
		if ord == nil {
			w.Outcome = WalkNoOrder
			w.Unordered = append(w.Unordered, attr)
		}
	}
	if w.Outcome == WalkNoOrder {
		return nil, w
	}
	w.Limit = limit
	walks := make([]cursor, len(leaves))
	for j, l := range leaves {
		k := slices.Index(w.Attrs, l.Attr)
		walks[j] = newCursor(l, vals[k], orders[k])
	}
	n := len(vals[0])
	sc := walkPool.Get().(*walkScratch)
	defer walkPool.Put(sc)
	sc.grow(n)
	for _, ord := range orders {
		for _, i := range ord.Pos[ord.Ordered:] {
			sc.mark(int(i))
		}
		for i := ord.Covers; i < n; i++ {
			sc.mark(i)
		}
	}
	// Round-robin, one step per walk, until one row has been seen by every
	// walk, the candidates pass the limit, or the orders run out.
	found, moved := false, true
	for !found && moved && sc.m <= limit {
		moved = false
		for j := range walks {
			row, ok := walks[j].next()
			if !ok {
				continue
			}
			moved = true
			sc.mark(row)
			if sc.count[row]++; int(sc.count[row]) == len(walks) {
				found = true
				break
			}
		}
	}
	if found {
		for j := range walks {
			for walks[j].tied() {
				row, _ := walks[j].next()
				sc.mark(row)
			}
			if walks[j].last == math.Inf(-1) {
				found = false // an off-scale row would tie the end of this walk
			}
		}
	}
	if !found || sc.m > limit {
		w.Outcome = WalkGaveUp
		sc.drain(nil)
		return nil, w
	}
	return sc.drain(make([]int, 0, sc.m)), w
}

// finiteTarget reports whether a leaf's target is finite: a NaN or
// infinite AROUND or BETWEEN bound never walks (its distances do not
// order the values the way the walk's pointers do).
func finiteTarget(leaf pref.Preference) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch q := leaf.(type) {
	case *pref.Around:
		return finite(q.Target())
	case *pref.Between:
		lo, up := q.Bounds()
		return finite(lo) && finite(up)
	}
	return true
}

// cursor walks one leaf's value order in descending score: the rows below
// the split point downward, those from it upward, merged by score.
type cursor struct {
	pos   []int32 // the order's Pos[:Ordered]
	vals  []float64
	score func(float64) float64
	lo    int     // pos[:lo] is not yet taken on the downward side
	hi    int     // pos[hi:] is not yet taken on the upward side
	sLo   float64 // score of pos[lo-1]
	sHi   float64 // score of pos[hi]
	last  float64 // score of the last row taken
}

// newCursor places a leaf's walk on its order: LOWEST starts at the lowest
// value and HIGHEST at the highest, AROUND z at z's search point and
// BETWEEN [l, u] at l's.
func newCursor(l pref.ScaleLeaf, vals []float64, ord *filter.ValueOrder) cursor {
	pos := ord.Pos[:ord.Ordered]
	from := func(z float64) int {
		return sort.Search(len(pos), func(k int) bool { return vals[pos[k]] >= z })
	}
	var split int
	switch q := l.Leaf.(type) {
	case *pref.Highest:
		split = len(pos)
	case *pref.Around:
		split = from(q.Target())
	case *pref.Between:
		lo, _ := q.Bounds()
		split = from(lo)
	}
	c := cursor{pos: pos, vals: vals, score: l.Score, lo: split, hi: split}
	c.rescoreLo()
	c.rescoreHi()
	return c
}

// rescoreLo reads the score at the downward pointer.
func (c *cursor) rescoreLo() {
	if c.lo > 0 {
		c.sLo = c.score(c.vals[c.pos[c.lo-1]])
	}
}

// rescoreHi reads the score at the upward pointer.
func (c *cursor) rescoreHi() {
	if c.hi < len(c.pos) {
		c.sHi = c.score(c.vals[c.pos[c.hi]])
	}
}

// next takes the best untaken row; ok=false when the order is exhausted.
func (c *cursor) next() (row int, ok bool) {
	switch {
	case c.lo > 0 && (c.hi == len(c.pos) || c.sLo >= c.sHi):
		c.lo--
		row, c.last = int(c.pos[c.lo]), c.sLo
		c.rescoreLo()
	case c.hi < len(c.pos):
		row, c.last = int(c.pos[c.hi]), c.sHi
		c.hi++
		c.rescoreHi()
	default:
		return 0, false
	}
	return row, true
}

// tied reports whether the next row ties the last one taken.
func (c *cursor) tied() bool {
	return (c.lo > 0 && c.sLo == c.last) || (c.hi < len(c.pos) && c.sHi == c.last)
}

// walkScratch is a walk's per-row state over an n-row shard: a bitmap of
// the candidates (m of them) and, per row, how many walks saw it. Both are
// all zero between walks; drain restores that in O(m + n/64).
type walkScratch struct {
	bits  []uint64
	count []uint8
	m     int
}

// walkPool recycles walk scratch across statements.
var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// grow readies the scratch for an n-row shard.
func (sc *walkScratch) grow(n int) {
	if words := (n + 63) / 64; len(sc.bits) < words {
		sc.bits = make([]uint64, words)
	}
	if len(sc.count) < n {
		sc.count = make([]uint8, n)
	}
	sc.m = 0
}

// mark adds row i to the candidates.
func (sc *walkScratch) mark(i int) {
	if w, b := i>>6, uint64(1)<<(i&63); sc.bits[w]&b == 0 {
		sc.bits[w] |= b
		sc.m++
	}
}

// drain appends the candidates to out in ascending order and clears the
// scratch.
func (sc *walkScratch) drain(out []int) []int {
	for w, word := range sc.bits {
		if sc.m == 0 {
			break
		}
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			sc.count[i] = 0
			sc.m--
			if out != nil {
				out = append(out, i)
			}
		}
		sc.bits[w] = 0
	}
	return out
}
