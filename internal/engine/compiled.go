package engine

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Compiled columnar execution: every algorithm has a twin that runs over a
// pref.Compiled — flat score vectors and ordinal codes addressed by row
// position — instead of calling Preference.Less on boxed tuple views. The
// engine compiles once per query (BMOIndices / plan execution / stream
// start) and dispatches the compiled twins whenever compilation succeeds;
// preferences outside the compilable fragment keep the interface path
// unchanged.

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

// compileFor binds p to the relation's whole column arrays through the
// compile cache, or returns nil when the mode forbids it or the term is
// outside the compilable fragment. Repeated calls with the same term over
// an unchanged relation reuse one bound form (see cache.go). Callers that
// share one form across many candidate subsets (groups, partitions,
// streams) bind here; a single evaluation over one subset goes through
// evalOn, which may gather instead.
func compileFor(p pref.Preference, r *relation.Relation, mode EvalMode) *pref.Compiled {
	if mode == EvalInterpreted || r == nil || !pref.Compilable(p) {
		return nil
	}
	c, _ := cachedCompile(keyTerm(p), r)
	return c
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
// invariant of bnl with zero allocation per candidate. A form with a flat
// shape keeps the window as row-major records and settles each
// (candidate, window member) pair with one three-way compare; any other
// form asks the predicate tree in both directions.
func bnlCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	if fs := c.Flat(); fs != nil {
		return bnlFlat(fs, idx, cc)
	}
	return bnlTree(c, idx, cc)
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

// sfsCompiled is sort-filter-skyline over compiled columns: the sort keys
// are the precomputed per-dimension key vectors of the compiled form —
// no key materialization, no per-candidate allocation — and the filter
// pass runs on the cheapest comparator the form allows (maximaFilter).
// Falls back to bnlCompiled when the term has no compatible key.
func sfsCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	keys, ok := c.SortKeys()
	if !ok {
		return bnlCompiled(c, idx, cc)
	}
	cc.check()
	order := append([]int(nil), idx...)
	slices.SortFunc(order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
	f := newMaximaFilter(c)
	defer f.release()
	return sfsFilter(f, order, cc)
}

// sfsFilter is the filter pass of sfsCompiled: rows visited in key order,
// each kept unless a confirmed maximum dominates it.
func sfsFilter(f *maximaFilter, order []int, cc *canceller) []int {
	var result []int
	for _, i := range order {
		cc.tick()
		if !f.dominated(i) {
			f.confirm(i)
			result = append(result, i)
		}
	}
	slices.Sort(result)
	return result
}

// maximaFilter is the candidate-vs-confirmed-maxima test of every pass
// that visits rows in sort-key order — sfsCompiled's filter pass and the
// progressive stream's confirm loop — over one of three comparators:
// confirmed maxima live in the AVX2 chain filter's blocked coordinate
// store, in the flat kernel's committed records (one contiguous block in
// confirmation order), or as row positions the predicate tree is asked
// about pair by pair. Exactly one of chain, flat and tree is set.
type maximaFilter struct {
	chain *chainFilter
	flat  *flatKernel
	tree  *pref.Compiled
	rows  []int // confirmed maxima of the tree comparator
}

// newMaximaFilter picks the comparator the bound form allows — the one
// place the run-time choice dominanceOf predicts is made: the blocked
// AVX2 chain filter for exact chain products, the flat record kernel for
// the flat fragment, the predicate tree for the rest — and counts the
// pass under it.
func newMaximaFilter(c *pref.Compiled) *maximaFilter {
	if cf := newChainFilter(c); cf != nil {
		dominanceRuns[DominanceChainAVX2].Add(1)
		return &maximaFilter{chain: cf}
	}
	if fs := c.Flat(); fs != nil {
		dominanceRuns[DominanceFlat].Add(1)
		return &maximaFilter{flat: newFlatKernel(fs, 16)}
	}
	dominanceRuns[DominanceTree].Add(1)
	return &maximaFilter{tree: c}
}

// dominated reports whether a confirmed maximum dominates row i.
func (f *maximaFilter) dominated(i int) bool {
	switch {
	case f.chain != nil:
		return f.chain.dominated(i)
	case f.flat != nil:
		return f.flat.beaten(i)
	}
	for _, w := range f.rows {
		if f.tree.Less(i, w) {
			return true
		}
	}
	return false
}

// confirm adds row i — the row dominated just refused — to the maxima.
func (f *maximaFilter) confirm(i int) {
	switch {
	case f.chain != nil:
		f.chain.add(i)
	case f.flat != nil:
		f.flat.commit() // the candidate dominated staged
	default:
		f.rows = append(f.rows, i)
	}
}

// release returns the record store to its pool; the filter must not be
// used again.
func (f *maximaFilter) release() {
	if f.flat != nil {
		f.flat.release()
		f.flat = nil
	}
}

// filterBlock is the number of confirmed maxima one kernel iteration
// compares a candidate against.
const filterBlock = 8

// chainFilter is the AVX2 candidate-vs-maxima domination filter for
// chain-product preferences: confirmed maxima coordinates are stored in
// blocked column-major form and the assembly kernel (kernel_amd64.s)
// tests a candidate against eight of them per iteration — VCMPPD ≥/>
// masks with per-block early exit. On the chain fragment (distinct
// LOWEST/HIGHEST attributes) coordinate-wise score dominance coincides
// with the compiled Pareto predicate — the same equivalence dncCompiled
// relies on, valid only while each dimension's ±Inf scores absorbed at
// most one value class (newChainFilter gates on pref.InfCollapse) — with
// NaN on either side blocking dominance, exactly like dominates.
//
// Layout: maxima are grouped into blocks of filterBlock(=8); block b
// stores dimension k of its lane j at blocks[(b*d+k)*filterBlock + j],
// tail lanes of the last block padded with NaN (a NaN pad can never
// satisfy ≥, so padded lanes drop out on the first dimension — no tail
// special-casing anywhere). The portable model of the kernel, the masked
// pass the property tests hold the assembly to, lives in kernel_test.go.
// Without the kernel — a noasm build, a CPU without AVX2, the runtime
// flag off — there is no chain filter: chain products are in the flat
// fragment and filter through the record kernel.
type chainFilter struct {
	d      int
	vecs   [][]float64 // per-dimension score vectors, position-addressed
	blocks []float64   // maxima coords, blocked column-major, NaN-padded
	n      int         // confirmed maxima count
	cand   []float64   // candidate coordinate scratch, len d
}

// newChainFilter returns a filter reading its coordinates from the
// compiled form's chain-dimension score vectors, or nil when the AVX2
// kernel is off (kernel.go), the term is not a chain product — or a
// dimension's ±Inf scores absorbed more than one value class
// (pref.InfCollapse), where coordinate dominance would over-kill rows the
// Pareto predicate leaves incomparable. Callers fall back to the flat
// record kernel, which is exact on all of those.
func newChainFilter(c *pref.Compiled) *chainFilter {
	if !AVX2Enabled() {
		return nil
	}
	dims, ok := chainDims(c.Pref())
	if !ok {
		return nil
	}
	vecs := make([][]float64, len(dims))
	for d, s := range dims {
		if vecs[d] = c.ScoreVec(s); vecs[d] == nil || !c.ScoreVecExact(s) {
			return nil
		}
	}
	return &chainFilter{d: len(dims), vecs: vecs, cand: make([]float64, len(dims))}
}

// dominated reports whether any confirmed maximum dominates row i:
// coordinate-wise ≥ on every dimension with > somewhere, NaN blocking
// (mv >= cv is false when either side is NaN).
func (f *chainFilter) dominated(i int) bool {
	if f.n == 0 {
		return false
	}
	for k := 0; k < f.d; k++ {
		f.cand[k] = f.vecs[k][i]
	}
	nblocks := (f.n + filterBlock - 1) / filterBlock
	return dominatedBlocksAVX2(&f.cand[0], f.d, &f.blocks[0], nblocks) != 0
}

// add confirms row i as a maximum, writing its coordinates into the
// blocked store; opening a new block pads it with NaN first.
func (f *chainFilter) add(i int) {
	b, lane := f.n/filterBlock, f.n%filterBlock
	if lane == 0 {
		start := len(f.blocks)
		f.blocks = append(f.blocks, make([]float64, f.d*filterBlock)...)
		for x := start; x < len(f.blocks); x++ {
			f.blocks[x] = math.NaN()
		}
	}
	base := b * f.d * filterBlock
	for k := 0; k < f.d; k++ {
		f.blocks[base+k*filterBlock+lane] = f.vecs[k][i]
	}
	f.n++
}

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

// dncCompiled runs the [KLP75] divide & conquer with coordinates read
// straight from the compiled score columns (one flat backing array, no
// per-row ScoreOf calls). Falls back to bnlCompiled for non-chain-product
// terms. The chain dimensions are resolved from the compiled form's own
// term: ScoreVec is keyed by sub-term pointer identity, and a cache-served
// form may stem from a different (structurally identical) tree than the
// caller's.
func dncCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	dims, ok := chainDims(c.Pref())
	if !ok {
		return bnlCompiled(c, idx, cc)
	}
	vecs := make([][]float64, len(dims))
	for d, s := range dims {
		// ScoreVecExact: an inexact ±Inf collapse breaks the coordinate-
		// dominance equivalence (see newChainFilter) — fall back.
		if vecs[d] = c.ScoreVec(s); vecs[d] == nil || !c.ScoreVecExact(s) {
			return bnlCompiled(c, idx, cc)
		}
	}
	dominanceRuns[DominanceCoords].Add(1)
	pts := make([]dncPoint, len(idx))
	backing := make([]float64, len(idx)*len(dims))
	for k, i := range idx {
		coord := backing[k*len(dims) : (k+1)*len(dims) : (k+1)*len(dims)]
		for d := range dims {
			coord[d] = vecs[d][i]
		}
		pts[k] = dncPoint{i, coord}
	}
	maxima := dncMaxima(pts, cc)
	out := make([]int, len(maxima))
	for k, pt := range maxima {
		out[k] = pt.row
	}
	slices.Sort(out)
	return out
}
