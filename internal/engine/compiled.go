package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pref"
)

// Compiled columnar execution: every algorithm has a twin that runs over a
// pref.Compiled — flat score vectors and ordinal codes addressed by row
// position — instead of calling Preference.Less on boxed tuple views. The
// engine compiles once per query (BMOIndices / plan execution / stream
// start) and dispatches the compiled twins whenever compilation succeeds;
// preferences outside the compilable fragment keep the interface path
// unchanged.
//
// Two kinds of pass live here. A window pass (bnlCompiled) tests every
// candidate against the current window in both directions and evicts; a
// one-way pass (sfsCompiled, and through maximaFilter the stream's confirm
// loop and the cross-shard sweeps) first puts the candidates in an order
// no dominated row precedes its dominator in, then tests each against the
// confirmed maxima only. For the flat fragment that order costs one pass
// over the scores and one word sort (sumOrder). Both kinds test eight rows
// at a time on the AVX2 score blocks, exact on ties — the window pass on
// the blocks and their negated mirror, one kernel answering both
// directions (maximaFilter.window), unless its head group is a single
// leaf; which pass a statement gets is the planner's cost comparison
// (planCore).

// EvalMode selects between compiled columnar and interpreted tuple-at-a-
// time evaluation.
type EvalMode int

// Evaluation modes.
const (
	// EvalAuto compiles whenever the preference is compilable, falling
	// back to the interface path otherwise. The default everywhere.
	EvalAuto EvalMode = iota
	// EvalCompiled behaves like EvalAuto; it exists so benchmarks and
	// tests state their intent explicitly.
	EvalCompiled
	// EvalInterpreted forces the tuple-at-a-time interface path, the
	// baseline the compiled layer is measured against.
	EvalInterpreted
)

// String renders the mode name.
func (m EvalMode) String() string {
	switch m {
	case EvalAuto:
		return "auto"
	case EvalCompiled:
		return "compiled"
	case EvalInterpreted:
		return "interpreted"
	}
	return fmt.Sprintf("EvalMode(%d)", int(m))
}

// naiveCompiled is the exhaustive pairwise reference over compiled
// columns, through the flat kernel when the form has a flat shape.
func naiveCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	var out []int
	if fs := c.Flat(); fs != nil {
		dominanceRuns[DominanceFlat].Add(1)
		k := gatherFlat(fs, idx, cc)
		defer k.release()
		for _, i := range idx {
			cc.check() // one candidate scans every record: poll per candidate
			if !k.beaten(i) {
				out = append(out, i)
			}
		}
		return out
	}
	dominanceRuns[DominanceTree].Add(1)
	for _, i := range idx {
		maximal := true
		for _, j := range idx {
			cc.tick()
			if i != j && c.Less(i, j) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, i)
		}
	}
	return out
}

// bnlCompiled is block-nested-loops over compiled columns: the window
// invariant of bnl with zero allocation per candidate, on the comparator
// dominanceFor names. A form with a flat shape keeps the window in the
// AVX2 score blocks when its head group has two or more leaves and the
// kernel is on (maximaFilter.window), as row-major records settling each
// (candidate, window member) pair with one three-way compare otherwise;
// any other form asks the predicate tree in both directions.
func bnlCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	fs := c.Flat()
	switch {
	case fs == nil:
		return bnlTree(c, idx, cc)
	case dominanceFor(fs.Ends[0], BNL) == DominanceBlocksAVX2:
		f := newBlockFilter(fs, chainExact(c.Pref(), fs))
		defer f.release()
		return f.window(idx, cc)
	}
	return bnlFlat(fs, idx, cc)
}

// bnlTree is the window pass through the compiled predicate tree.
func bnlTree(c *pref.Compiled, idx []int, cc *canceller) []int {
	dominanceRuns[DominanceTree].Add(1)
	window := make([]int, 0, 16)
	for _, i := range idx {
		cc.tick()
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if c.Less(i, w) {
				dominated = true
				break
			}
			if !c.Less(w, i) {
				keep = append(keep, w)
			}
		}
		if dominated {
			continue
		}
		window = append(keep, i)
	}
	slices.Sort(window)
	return window
}

// bnlFlat is the window pass over records: the store holds exactly the
// window, compacted in place as members are evicted, with the candidate's
// record pushed behind it — so every pass scans one contiguous block and
// the store never outgrows the window.
func bnlFlat(fs *pref.FlatShape, idx []int, cc *canceller) []int {
	dominanceRuns[DominanceFlat].Add(1)
	k := newFlatKernel(fs, 16)
	defer k.release()
	window := make([]int, 0, 16) // window[m] is the row whose record sits in slot m
candidates:
	for _, i := range idx {
		cc.tick()
		k.stage(i)
		keep := 0
		for m := 0; m < k.n; m++ {
			switch k.compare(m) {
			case ordLess:
				// Beaten: by transitivity the candidate evicted nobody
				// before this member, so the window is untouched.
				continue candidates
			case ordGreater:
			default:
				if keep != m {
					k.move(m, keep)
					window[keep] = window[m]
				}
				keep++
			}
		}
		k.truncate(keep)
		k.commit()
		window = append(window[:keep], i)
	}
	slices.Sort(window)
	return window
}

// sfsCompiled is sort-filter-skyline over compiled columns: candidates are
// visited best first in an order compatible with the preference, so each
// needs testing one way only, against the maxima confirmed so far, and
// nothing is ever evicted — on the cheapest comparator the form allows
// (maximaFilter). A form with a flat shape derives its order in one pass
// over the candidates' scores (sumOrder) and takes the window pass on the
// same comparator where a NaN leaves that order undefined; any other keyed
// form sorts on the bound form's dense-rank key vectors. Order, scratch
// and the maxima store are the filter's pooled memory: the pass allocates
// its result and nothing else. Falls back to the window pass when the
// term has no compatible key.
func sfsCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	cc.check()
	f := newMaximaFilter(c)
	defer f.release()
	if fs := c.Flat(); fs != nil {
		if !f.sumOrder(fs, idx) {
			if f.leg == DominanceBlocksAVX2 {
				return f.window(idx, cc)
			}
			return bnlFlat(fs, idx, cc)
		}
	} else {
		keys, ok := c.SortKeys()
		if !ok {
			return bnlTree(c, idx, cc)
		}
		f.order = append(f.order[:0], idx...)
		slices.SortFunc(f.order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
	}
	dominanceRuns[f.leg].Add(1)
	return sfsFilter(f, f.order, cc)
}

// sumOrder leaves in f.order the candidates idx of a flat shape, best
// first, in an order no row precedes a row that dominates it — derived
// from one pass over their scores and one sort of machine words, no rank
// transform. The primary key is the float sum of the head group's scores:
// x <P y makes y at least as good on every head dimension (or equal on the
// whole group, when a later group decides), and float addition is
// monotone, so sum(y) ≥ sum(x). Monotone, not strictly: (1e16, 1) and
// (1e16, 0) share a sum, and a sorted pass never evicts, so a dominated
// row visited first would be returned. Ties therefore fall to the scores
// themselves, compared lexicographically over all dimensions in shape
// order — on its own a linear extension of the order (the first differing
// dimension of a dominated row is one where it is worse), just a poor
// visit order, which is why the sum leads. Infinite scores keep all of
// that (the sum saturates, the tie-break decides); a NaN — a NaN score, or
// +Inf and −Inf meeting in one group — compares with nothing, and the
// pass reports false: the window pass is exact there.
//
// Each sort word is the head sum's order-preserving bit image, inverted so
// the best sorts first, with its low bits giving way to the candidate's
// position in idx; runs that agree on the bits kept are put right with the
// lexicographic comparison.
func (f *maximaFilter) sumOrder(fs *pref.FlatShape, idx []int) bool {
	n := len(idx)
	mask := uint64(1)<<bits.Len(uint(n)) - 1
	f.words = slices.Grow(f.words[:0], n)[:n]
	dims, words := fs.Dims, f.words
	for k, i := range idx {
		var head float64
		d := 0
		for g, end := range fs.Ends {
			sum := 0.0 // +0: a sum of −0 scores must not sort apart from +0
			for ; d < end; d++ {
				sum += dims[d].Score[i]
			}
			if sum != sum {
				return false
			}
			if g == 0 {
				head = sum
			}
		}
		b := math.Float64bits(head)
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		words[k] = ^b&^mask | uint64(k)
	}
	slices.Sort(words)
	lex := func(a, b uint64) int {
		i, j := idx[a&mask], idx[b&mask]
		for d := range dims {
			switch x, y := dims[d].Score[i], dims[d].Score[j]; {
			case x > y: // descending: best first
				return -1
			case x < y:
				return 1
			}
		}
		return cmp.Compare(a, b)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && words[hi]&^mask == words[lo]&^mask {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(words[lo:hi], lex)
		}
		lo = hi
	}
	f.order = slices.Grow(f.order[:0], n)[:n]
	for k, w := range words {
		f.order[k] = idx[w&mask]
	}
	return true
}

// sfsFilter is the filter pass of sfsCompiled: rows visited in key order,
// each kept unless a confirmed maximum dominates it.
func sfsFilter(f *maximaFilter, order []int, cc *canceller) []int {
	for _, i := range order {
		cc.tick()
		if !f.dominated(i) {
			f.confirm(i)
		}
	}
	result := slices.Clone(f.rows)
	slices.Sort(result)
	return result
}

// filterBlock is the number of stored maxima one kernel iteration tests a
// candidate against.
const filterBlock = 8

// maximaFilter is the one-way candidate-vs-maxima test of every pass that
// knows no later row can beat an earlier one — sfsCompiled's filter pass,
// the progressive stream's confirm loop, the two sweeps of the cross-shard
// fold — together with that pass's scratch, over one of three comparators
// (leg); on the blocks leg it is also the window pass's store (window).
//
// Blocks (DominanceBlocksAVX2): every flat shape while the AVX2 kernel is
// on. The maxima's head-group scores sit in a blocked column-major store —
// block b keeps dimension k of its lane j at blocks[(b*w+k)*filterBlock+j],
// the tail lanes of the last block padded with NaN, which no ≥ admits, so
// nothing special-cases the tail — and the assembly kernel
// (kernel_amd64.s) tests a candidate against eight of them per iteration.
// A row that beats the candidate is at least as good on every head
// dimension and better on one (or, when further groups follow, possibly
// equal on all of them), so a lane the kernel does not report cannot beat
// it: "not dominated" is exact. A reported lane that is strictly better on
// every dimension beats it whatever its values are. Only a reported lane
// that tied on a dimension is undecided by scores — 4 and 6 tie AROUND 5,
// NULL ties −Inf, two instants tie within a second, a later group may
// decide — and that one pair is settled on the records' terms by
// flatBeats. A chain product whose score ties are value ties (exact) needs
// no second look at all. The one case scores cannot see: a row with a NaN
// score is still equal, on that dimension, to a row of the same value, so
// a candidate carrying a NaN in its head group is settled pair by pair
// (no stored row with a NaN can beat a candidate without one — equal
// values score alike).
//
// A window pass asks the other direction too: which stored rows the
// candidate beats. Its mirror store holds the same lanes negated, where
// −m ≥ −c is m ≤ c, so the same kernel answers it with the same verdict
// rule, the candidate's negated scores as its operand (negation keeps NaN
// NaN and turns +0 into −0, which EQ_OQ still ties with +0).
//
// Flat (DominanceFlat): the flat kernel's committed records, for flat
// shapes without the AVX2 kernel. Tree (DominanceTree): row positions the
// predicate tree is asked about pair by pair, for everything else.
//
// rows lists the confirmed maxima in confirmation order on every leg (on
// the blocks leg, lane order; a window pass keeps its window there). A
// filter comes from filterPool and goes back on release; only backing
// arrays survive the round trip.
type maximaFilter struct {
	leg  Dominance
	flat *flatKernel    // the flat leg's records
	tree *pref.Compiled // the tree leg's predicate
	rows []int

	// The blocks leg: the shape, its head group's width, what a report
	// means, the store and the candidate's scratch.
	fs      *pref.FlatShape
	w       int
	exact   bool  // score ties are value ties: every reported lane is final
	strict0 int64 // the kernel's strict seed: −1 when further groups follow
	blocks  []float64
	cand    []float64
	lanes   int // lanes offered to the kernel so far
	checks  int // pairs sent to flatBeats so far

	// A window pass's mirror: the store negated, the candidate's scores
	// negated, and the lanes the candidate beats.
	mirror []float64
	neg    []float64
	beaten []int

	// Scratch of a sorted pass: sort words and the visit order.
	words []uint64
	order []int
}

// filterPool recycles maxima filters the way flatPool recycles record
// stores: a statement's shard passes and its merge reuse the same blocks,
// sort words and row lists.
var filterPool = sync.Pool{New: func() any { return new(maximaFilter) }}

// newMaximaFilter picks the comparator the bound form allows — the one
// place the run-time choice dominanceOf predicts is made: the blocked
// store for the flat fragment while the AVX2 kernel is on, flat records
// for it otherwise, the predicate tree for the rest. The caller counts the
// pass (dominanceRuns) once it knows the pass will run.
func newMaximaFilter(c *pref.Compiled) *maximaFilter {
	fs := c.Flat()
	if fs != nil && AVX2Enabled() {
		return newBlockFilter(fs, chainExact(c.Pref(), fs))
	}
	f := filterPool.Get().(*maximaFilter)
	f.rows = f.rows[:0]
	if fs != nil {
		f.leg, f.flat = DominanceFlat, newFlatKernel(fs, 16)
	} else {
		f.leg, f.tree = DominanceTree, c
	}
	return f
}

// newBlockFilter returns an empty filter on the blocks leg over the shape;
// exact promises that a score tie on the (single) group is a value tie.
func newBlockFilter(fs *pref.FlatShape, exact bool) *maximaFilter {
	f := filterPool.Get().(*maximaFilter)
	f.leg, f.fs, f.w = DominanceBlocksAVX2, fs, fs.Ends[0]
	f.exact, f.strict0 = exact && len(fs.Ends) == 1, 0
	if len(fs.Ends) > 1 {
		f.strict0 = -1
	}
	f.rows, f.blocks, f.mirror = f.rows[:0], f.blocks[:0], f.mirror[:0]
	f.cand, f.neg = slices.Grow(f.cand[:0], f.w)[:f.w], slices.Grow(f.neg[:0], f.w)[:f.w]
	return f
}

// chainExact reports that p is a chain product on whose every dimension a
// score tie is a value tie over the rows of its flat shape fs
// (pref.FlatShape.TiesExact: no infinity absorbed two classes, no TIME
// scale): coordinate dominance is the predicate.
func chainExact(p pref.Preference, fs *pref.FlatShape) bool {
	return chainProduct(p, func(pref.Scorer) {}) && fs.TiesExact()
}

// dominated reports whether a confirmed maximum dominates row i.
func (f *maximaFilter) dominated(i int) bool {
	switch f.leg {
	case DominanceBlocksAVX2:
		return f.blockDominated(i)
	case DominanceFlat:
		return f.flat.beaten(i)
	}
	for _, w := range f.rows {
		if f.tree.Less(i, w) {
			return true
		}
	}
	return false
}

// blockDominated is dominated on the blocks leg (see maximaFilter for the
// verdict rule).
func (f *maximaFilter) blockDominated(i int) bool {
	n := len(f.rows)
	if n == 0 {
		return false
	}
	dims := f.fs.Dims
	nan := false
	for k := range f.cand {
		v := dims[k].Score[i]
		f.cand[k] = v
		nan = nan || v != v
	}
	if nan {
		for _, m := range f.rows {
			f.lanes++
			f.checks++
			if flatBeats(f.fs, m, i) {
				return true
			}
		}
		return false
	}
	stride := f.w * filterBlock
	nblocks := (n + filterBlock - 1) / filterBlock
	for b := 0; b < nblocks; {
		v := dominatingBlockAVX2(&f.cand[0], f.w, &f.blocks[b*stride], nblocks-b, f.strict0)
		if v < 0 {
			f.lanes += n - b*filterBlock
			return false
		}
		hit := b + int(v>>16)
		f.lanes += min(n, (hit+1)*filterBlock) - b*filterBlock
		dom, tied := uint8(v>>8), uint8(v)
		if f.exact || dom&^tied != 0 {
			return true
		}
		for ; tied != 0; tied &= tied - 1 {
			f.checks++
			if flatBeats(f.fs, f.rows[hit*filterBlock+bits.TrailingZeros8(tied)], i) {
				return true
			}
		}
		b = hit + 1
	}
	return false
}

// confirm adds row i — the row dominated just refused — to the maxima.
func (f *maximaFilter) confirm(i int) {
	switch f.leg {
	case DominanceBlocksAVX2:
		f.blocks = f.putLane(f.blocks, len(f.rows), i, 1)
	case DominanceFlat:
		f.flat.commit() // the candidate dominated staged
	}
	f.rows = append(f.rows, i)
}

// putLane writes row i's head-group scores times sign (1, or −1 for the
// mirror) into lane n of a blocked store, opening a block — NaN in every
// lane until a row moves in — when lane n starts one.
func (f *maximaFilter) putLane(store []float64, n, i int, sign float64) []float64 {
	if n%filterBlock == 0 {
		stride := f.w * filterBlock
		store = slices.Grow(store, stride)[:len(store)+stride]
		for x := len(store) - stride; x < len(store); x++ {
			store[x] = math.NaN()
		}
	}
	at := f.laneAt(n)
	for k := 0; k < f.w; k++ {
		store[at+k*filterBlock] = sign * f.fs.Dims[k].Score[i]
	}
	return store
}

// laneAt is the offset of lane n's first dimension in a blocked store.
func (f *maximaFilter) laneAt(n int) int {
	return n/filterBlock*f.w*filterBlock + n%filterBlock
}

// window is the window pass on the blocks leg — bnlCompiled's for a flat
// shape with a wide head group, and sfsCompiled's where a NaN leaves the
// sum order undefined: each candidate is tested against the window on the
// store, and one that no window row beats evicts the rows it beats, found
// on the mirror, before it joins. The stores and the row list are the
// filter's pooled memory; the pass allocates its result.
func (f *maximaFilter) window(idx []int, cc *canceller) []int {
	dominanceRuns[DominanceBlocksAVX2].Add(1)
	for _, i := range idx {
		cc.tick()
		if f.blockDominated(i) {
			// Beaten: by transitivity the candidate beats no window row.
			continue
		}
		f.evict(i)
		f.mirror = f.putLane(f.mirror, len(f.rows), i, -1)
		f.confirm(i)
	}
	result := slices.Clone(f.rows)
	slices.Sort(result)
	return result
}

// evict drops the window rows candidate i beats, by the verdict rule of
// blockDominated with the roles swapped: the kernel runs on the mirror
// with i's negated scores, a NaN among them settles every pair on the
// records, and a reported lane that tied goes to flatBeats(i, m). f.cand
// holds i's scores: blockDominated loaded them.
func (f *maximaFilter) evict(i int) {
	n := len(f.rows)
	if n == 0 {
		return
	}
	nan := false
	for k, v := range f.cand {
		f.neg[k] = -v
		nan = nan || v != v
	}
	beaten := f.beaten[:0]
	if nan {
		for lane, m := range f.rows {
			f.lanes++
			f.checks++
			if flatBeats(f.fs, i, m) {
				beaten = append(beaten, lane)
			}
		}
	} else {
		f.lanes += n // the sweep always runs to the last block
		stride := f.w * filterBlock
		nblocks := (n + filterBlock - 1) / filterBlock
		for b := 0; b < nblocks; {
			v := dominatingBlockAVX2(&f.neg[0], f.w, &f.mirror[b*stride], nblocks-b, f.strict0)
			if v < 0 {
				break
			}
			hit := b + int(v>>16)
			dom, tied := uint8(v>>8), uint8(v)
			if f.exact {
				tied = 0
			}
			for ; dom != 0; dom &= dom - 1 {
				lane := bits.TrailingZeros8(dom)
				at := hit*filterBlock + lane
				if tied&(1<<lane) != 0 {
					f.checks++
					if !flatBeats(f.fs, i, f.rows[at]) {
						continue
					}
				}
				beaten = append(beaten, at)
			}
			b = hit + 1
		}
	}
	if len(beaten) > 0 {
		f.compact(beaten)
	}
	f.beaten = beaten
}

// compact removes the window rows in lanes gone (ascending) from both
// stores and from rows in place, sliding the rows behind each gap forward
// — window order is immaterial to the result, and kept it is age order,
// as on records: the long-standing rows, which beat the most candidates,
// stay in the first blocks the kernel scans — then pads the freed lanes
// of the last block with NaN and drops the blocks left empty.
func (f *maximaFilter) compact(gone []int) {
	n, keep := len(f.rows), gone[0]
	for l, g := keep, 0; l < n; l++ {
		if g < len(gone) && gone[g] == l {
			g++
			continue
		}
		from, to := f.laneAt(l), f.laneAt(keep)
		for k := 0; k < f.w*filterBlock; k += filterBlock {
			f.blocks[to+k], f.mirror[to+k] = f.blocks[from+k], f.mirror[from+k]
		}
		f.rows[keep] = f.rows[l]
		keep++
	}
	f.rows = f.rows[:keep]
	size := (keep + filterBlock - 1) / filterBlock * f.w * filterBlock
	f.blocks, f.mirror = f.blocks[:size], f.mirror[:size]
	for l := keep; l%filterBlock != 0; l++ {
		at := f.laneAt(l)
		for k := 0; k < f.w*filterBlock; k += filterBlock {
			f.blocks[at+k], f.mirror[at+k] = math.NaN(), math.NaN()
		}
	}
}

// reset empties the maxima of a filter on the blocks leg.
func (f *maximaFilter) reset() { f.rows, f.blocks = f.rows[:0], f.blocks[:0] }

// release returns the filter (and its record store) to the pools, its
// re-check count to the process total; it must not be used again. Shape
// and form are dropped so a pooled filter pins no bound form.
func (f *maximaFilter) release() {
	if f.flat != nil {
		f.flat.release()
	}
	if f.checks > 0 {
		blockRechecks.Add(uint64(f.checks))
	}
	f.flat, f.tree, f.fs = nil, nil, nil
	f.lanes, f.checks = 0, 0
	filterPool.Put(f)
}

// blockRechecks counts the pairs the blocks leg could not settle on
// scores and sent to flatBeats.
var blockRechecks atomic.Uint64

// cmpKeyColumns compares two row positions by column-major key vectors,
// best (lexicographically largest) first — the visit order of SFS and the
// progressive stream.
func cmpKeyColumns(keys [][]float64, a, b int) int {
	for _, k := range keys {
		switch {
		case k[a] > k[b]: // descending: best first
			return -1
		case k[a] < k[b]:
			return 1
		}
	}
	return 0
}
