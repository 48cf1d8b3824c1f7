package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/pref"
)

// The flat dominance kernel. The better-than test of Pareto (Definition
// 8) and prioritized (Definition 9) accumulation is where a BMO
// evaluation spends its time, and through the compiled predicate tree it
// costs an interface dispatch per node, both children of every ⊗ node,
// equality columns scattered over column-major vectors — twice per pair
// where the window pass needs both directions. For the terms of the flat
// fragment (pref.FlatShaped: prioritized chains of Pareto groups over
// scalar leaves) one evaluation instead copies exactly the rows it
// compares into row-major records and answers both directions in one
// pass over two records.
//
// Why it is exact where raw coordinates are not: the chain kernels
// compare scores alone, so a score tie reads as "equal here" — wrong when
// ±Inf absorbed two value classes (NULL next to an infinite value), which
// is what the pref.InfCollapse gate rules out, and meaningless for AROUND,
// where 4 and 6 tie around 5. The records carry the attribute's tie key
// (pref.Tie.Key: the value's equality class as one word — the float
// image's bits for an INT/FLOAT column, a dictionary code for the rest)
// next to each score and a tie consults it: equal keys fall through,
// unequal keys make the pair incomparable in that group. NaN scores
// (never <, never >) take the same branch, and every NaN value is its own
// key. No witness, no gate. The </> path never reads a key.
//
// Records are per-evaluation state: built from the shape's columns for
// the rows one algorithm run visits, dropped with it, never cached — a
// cached pref.Compiled grows by nothing. Whose columns those are does not
// matter here: a cached or full bind's vectors, or on the gathered route
// the scores and precomputed tie keys a flat bind wrote for the
// candidates into their slab (pref.BindFlat), and in the cross-shard fold
// the records the shards carried out of theirs (pref.FlatShape.AppendRows).

// order is the outcome of one dominance test between two records.
type order uint8

const (
	// ordEqual: no group ranks the pair and every equality the definitions
	// consult holds (the single leaf of a final group ties on score; its
	// projection equality is never consulted — see pref.FlatDim).
	ordEqual order = iota
	// ordLess: the first record's row is worse (i <P j).
	ordLess
	// ordGreater: the first record's row is better (j <P i).
	ordGreater
	// ordIncomparable: the deciding group ranks neither above the other
	// and does not find them equal.
	ordIncomparable
)

// flatKernel holds the row-major records of one evaluation: slot s keeps
// its w scores at scores[s*w:] and its w tie keys at ties[s*w:].
// Slots 0..n-1 are committed — the window of a block-nested-loops pass,
// the confirmed maxima of a sort-filter pass, the standing members of the
// cross-shard fold (antichainFold); every test is between the
// one staged candidate, whose scores are assembled in the free slot
// behind them, and a committed slot. The candidate's scores are copied
// lazily, one group at a time as a test first reaches that group, and its
// tie keys are derived from their columns on the ties that ask for them: a
// candidate the leading group already decides against (the common fate
// under PRIOR TO) costs one column read per leading dimension, and only
// a candidate that is kept gets a whole record. The final single-leaf
// group's zero tie operand (pref.FlatDim) reads as the constant 0, so its
// ties fall through.
type flatKernel struct {
	dims   []pref.FlatDim
	ends   []int
	w      int
	n      int // committed slots
	scores []float64
	ties   []uint64
	row    int // the staged candidate's row in the bound form
	filled int // leading scores of the candidate copied so far
}

// flatPool recycles record stores: an evaluation borrows one for its
// run and releases it, so a statement's shard passes and its merge reuse
// the same few kilobytes instead of leaving them to the collector. Only
// the backing arrays survive a release — never records anyone reads.
var flatPool = sync.Pool{New: func() any { return new(flatKernel) }}

// newFlatKernel returns an empty record store for the shape with room
// for at least capacity slots; release returns it to the pool.
func newFlatKernel(fs *pref.FlatShape, capacity int) *flatKernel {
	k := flatPool.Get().(*flatKernel)
	k.dims, k.ends, k.w, k.n = fs.Dims, fs.Ends, len(fs.Dims), 0
	if need := capacity * k.w; len(k.scores) < need {
		k.scores, k.ties = make([]float64, need), make([]uint64, need)
	}
	return k
}

// release hands the store back for reuse; the caller must not touch it
// again. The shape's vectors are dropped so a pooled store pins no bound
// form.
func (k *flatKernel) release() {
	k.dims, k.ends = nil, nil
	flatPool.Put(k)
}

// gatherFlat commits the records of the given rows (positions or slots of
// the bound form), slot k holding rows[k], ticking the canceller per row:
// O(len(rows)·w). The exhaustive reference pass, which tests every row
// against every other, gathers up front.
func gatherFlat(fs *pref.FlatShape, rows []int, cc *canceller) *flatKernel {
	k := newFlatKernel(fs, len(rows)+1)
	for _, i := range rows {
		cc.tick()
		k.stage(i)
		k.commit()
	}
	return k
}

// stage makes bound-form row i the candidate; nothing is copied yet.
func (k *flatKernel) stage(i int) {
	if used := k.n * k.w; used+k.w > len(k.scores) {
		scores, ties := make([]float64, 2*used+k.w), make([]uint64, 2*used+k.w)
		copy(scores, k.scores[:used])
		copy(ties, k.ties[:used])
		k.scores, k.ties = scores, ties
	}
	k.row, k.filled = i, 0
}

// fill copies the candidate's scores up to dimension end into slot n.
func (k *flatKernel) fill(end int) {
	at, i := k.n*k.w, k.row
	for d := k.filled; d < end; d++ {
		k.scores[at+d] = k.dims[d].Score[i]
	}
	k.filled = end
}

// tie returns the candidate's tie key on dimension d.
func (k *flatKernel) tie(d int) uint64 { return k.dims[d].Tie.Key(k.row) }

// truncate drops the committed slots from keep on (a window pass calls
// it after compacting the survivors of an eviction to the front); the
// candidate's record will be assembled afresh behind them.
func (k *flatKernel) truncate(keep int) {
	if keep != k.n {
		k.n, k.filled = keep, 0
	}
}

// commit keeps the candidate: its whole record becomes slot n.
func (k *flatKernel) commit() {
	k.fill(k.w)
	at := k.n * k.w
	for d := range k.dims {
		k.ties[at+d] = k.tie(d)
	}
	k.n++
}

// move copies the record in committed slot from over slot to.
func (k *flatKernel) move(from, to int) {
	w := k.w
	from, to = from*w, to*w
	for d := 0; d < w; d++ {
		k.scores[to+d] = k.scores[from+d]
		k.ties[to+d] = k.ties[from+d]
	}
}

// compare is the three-way dominance test of the candidate against
// committed slot m: group by group in priority order, a strictly smaller
// score marks the candidate "worse", a strictly greater one "better",
// anything else (a tie, or a NaN on either side) must be backed by equal
// tie keys or the pair is incomparable; a group that marked one direction
// decides, one that marked both is incomparable, one that marked neither
// is equal and defers to the next.
func (k *flatKernel) compare(m int) order {
	w := k.w
	a, b := k.n*w, m*w
	d := 0
	for _, end := range k.ends {
		if k.filled < end {
			if end == d+1 {
				// A single-leaf group usually decides on sight: read the
				// candidate's score from its column before copying it.
				if x, y := k.dims[d].Score[k.row], k.scores[b+d]; x < y {
					return ordLess
				} else if x > y {
					return ordGreater
				}
			}
			k.fill(end)
		}
		lt, gt := false, false
		for ; d < end; d++ {
			x, y := k.scores[a+d], k.scores[b+d]
			switch {
			case x < y:
				if gt {
					return ordIncomparable
				}
				lt = true
			case x > y:
				if lt {
					return ordIncomparable
				}
				gt = true
			case k.tie(d) != k.ties[b+d]:
				return ordIncomparable
			}
		}
		if lt {
			return ordLess
		}
		if gt {
			return ordGreater
		}
	}
	return ordEqual
}

// beaten stages row i and reports whether any committed slot beats it —
// compare(m) == ordLess for some m, asked by the passes that only need
// one direction (a sorted visit order, or the exhaustive reference): each
// pair is left at the first dimension where the candidate is better.
func (k *flatKernel) beaten(i int) bool {
	k.stage(i)
	w := k.w
	a := k.n * w
members:
	for b := 0; b < a; b += w {
		d := 0
		for _, end := range k.ends {
			if k.filled < end {
				if end == d+1 {
					// As in compare: a single-leaf group from its column.
					if x, y := k.dims[d].Score[k.row], k.scores[b+d]; x < y {
						return true
					} else if x > y {
						continue members
					}
				}
				k.fill(end)
			}
			lt := false
			for ; d < end; d++ {
				x, y := k.scores[a+d], k.scores[b+d]
				switch {
				case x < y:
					lt = true
				case x > y:
					continue members
				case k.tie(d) != k.ties[b+d]:
					continue members
				}
			}
			if lt {
				return true
			}
		}
	}
	return false
}

// flatBeats reports whether row m beats row c (c <P m) — beaten's test for
// one pair, read straight from the shape's columns: what the blocked
// filter asks about the few pairs scores alone leave open.
func flatBeats(fs *pref.FlatShape, m, c int) bool {
	d := 0
	for _, end := range fs.Ends {
		lt := false
		for ; d < end; d++ {
			dim := &fs.Dims[d]
			switch x, y := dim.Score[c], dim.Score[m]; {
			case x < y:
				lt = true
			case x > y:
				return false
			case dim.Tie.Key(c) != dim.Tie.Key(m):
				return false
			}
		}
		if lt {
			return true
		}
	}
	return false
}

// Dominance names the pairwise comparator a compiled BMO step runs.
type Dominance int

// Dominance comparators.
const (
	// DominanceTree walks the compiled predicate tree (pref.Compiled.Less):
	// every term outside the flat fragment.
	DominanceTree Dominance = iota
	// DominanceFlat is the row-major three-way record kernel (flat.go):
	// the flat fragment wherever the blocks do not run — the kernel off, a
	// window pass under a single-leaf head group, the exhaustive reference.
	DominanceFlat
	// DominanceBlocksAVX2 is the blocked AVX2 kernel over head-group
	// scores (maximaFilter, kernel_amd64.s) when it is enabled: the one-way
	// passes — sort-filter, stream confirm, the cross-shard sweeps — over
	// the flat fragment, and its window passes whose head group has two or
	// more leaves, which ask the kernel both directions (a store and its
	// negated mirror).
	DominanceBlocksAVX2
)

// String renders the comparator the way EXPLAIN prints it.
func (d Dominance) String() string {
	switch d {
	case DominanceFlat:
		return "flat"
	case DominanceBlocksAVX2:
		return "blocks-avx2"
	}
	return "tree"
}

// dominanceOf is the one structural rule for which comparator a compiled
// run of alg over term p uses: the planner prices it, EXPLAIN reports it,
// and execution applies the same predicates in the same order
// (newMaximaFilter and bnlCompiled: pref.FlatShaped inside pref.Compile,
// the head group's width, then the AVX2 flag). One data-dependent
// demotion happens at run time and is not visible here: a presence-masked
// leaf (a generic source whose tuples lack an attribute) takes a flat
// term to the tree.
func dominanceOf(p pref.Preference, alg Algorithm) Dominance {
	return dominanceFor(flatHead(p), alg)
}

// dominanceFor is dominanceOf over the structural fact it needs, for
// callers that already hold it: head is the width of the term's head
// group, 0 outside the flat fragment. A window pass whose head group is a
// single leaf stays on records: its window is the few rows sharing the
// best head score, and the record compare settles a pair with one column
// read, where the blocks would pay a kernel call per candidate.
func dominanceFor(head int, alg Algorithm) Dominance {
	switch {
	case head == 0:
		return DominanceTree
	case AVX2Enabled() && (alg == SFS || alg == BNL && head > 1):
		return DominanceBlocksAVX2
	}
	return DominanceFlat
}

// flatHead is the width of a term's head group — the leaves of the first
// operand of its prioritized chain — or 0 when the term is outside the
// flat fragment.
func flatHead(p pref.Preference) int {
	if !pref.FlatShaped(p) {
		return 0
	}
	for {
		q, ok := p.(*pref.PrioritizedPref)
		if !ok {
			return keyLeaves(p)
		}
		p = q.Left()
	}
}

// dominanceRuns counts algorithm passes per comparator that actually ran
// (after the run-time demotion dominanceOf cannot see).
var dominanceRuns [DominanceBlocksAVX2 + 1]atomic.Uint64

// DominanceRuns returns the cumulative number of compiled algorithm
// passes (one per window, filter or stream-confirm run, partition workers
// and merges included) that compared through d — the "what ran" next to
// EXPLAIN's dominance= field.
func DominanceRuns(d Dominance) uint64 { return dominanceRuns[d].Load() }
