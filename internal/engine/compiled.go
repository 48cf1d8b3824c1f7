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
	c, _ := cachedCompile(p, r)
	return c
}

// naiveCompiled is the exhaustive pairwise reference over compiled columns.
func naiveCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	var out []int
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
// invariant of bnl with flat-vector comparisons and zero allocation per
// candidate.
func bnlCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
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

// sfsCompiled is sort-filter-skyline over compiled columns: the sort keys
// are the precomputed per-dimension key vectors of the compiled form —
// no key materialization, no per-candidate allocation — and the filter
// pass compares flat vectors. Chain-product terms run the blocked
// candidate-vs-maxima filter (see chainFilter); everything else compares
// through the compiled predicate tree. Falls back to bnlCompiled when the
// term has no compatible key.
func sfsCompiled(c *pref.Compiled, idx []int, cc *canceller) []int {
	keys, ok := c.SortKeys()
	if !ok {
		return bnlCompiled(c, idx, cc)
	}
	cc.check()
	order := append([]int(nil), idx...)
	slices.SortFunc(order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
	if cf := newChainFilter(c); cf != nil {
		return sfsFilterChain(cf, order, cc)
	}
	return sfsFilterGeneric(c, order, cc)
}

// sfsFilterGeneric is the filter pass of sfsCompiled through the compiled
// predicate tree: one c.Less call per (candidate, confirmed maximum) pair.
func sfsFilterGeneric(c *pref.Compiled, order []int, cc *canceller) []int {
	var result []int
	for _, i := range order {
		cc.tick()
		dominated := false
		for _, w := range result {
			if c.Less(i, w) {
				dominated = true
				break
			}
		}
		if !dominated {
			result = append(result, i)
		}
	}
	slices.Sort(result)
	return result
}

// sfsFilterChain is the blocked filter pass for chain products: each
// candidate tests against up to filterBlock confirmed maxima per inner
// iteration over flat coordinate columns.
func sfsFilterChain(cf *chainFilter, order []int, cc *canceller) []int {
	var result []int
	for _, i := range order {
		cc.tick()
		if !cf.dominated(i) {
			cf.add(i)
			result = append(result, i)
		}
	}
	slices.Sort(result)
	return result
}

// filterBlock is the number of confirmed maxima one masked filter
// iteration compares a candidate against; see dominatedMasked.
const filterBlock = 8

// chainFilter is the flat-column candidate-vs-maxima domination filter
// for chain-product preferences: confirmed maxima coordinates are stored
// in blocked column-major form, so the filter scans contiguous float64
// arrays instead of walking the compiled predicate tree per pair. On the
// chain fragment (distinct LOWEST/HIGHEST attributes) coordinate-wise
// score dominance coincides with the compiled Pareto predicate — the same
// equivalence dncCompiled relies on, valid only while each dimension's
// ±Inf scores absorbed at most one value class (newChainFilter gates on
// pref.InfCollapse) — with NaN on either side blocking dominance, exactly
// like dominates.
//
// Layout: maxima are grouped into blocks of filterBlock(=8); block b
// stores dimension k of its lane j at blocks[(b*d+k)*filterBlock + j],
// tail lanes of the last block padded with NaN (a NaN pad can never
// satisfy ≥, so padded lanes drop out on the first dimension — no tail
// special-casing anywhere). Three passes share the layout:
//
//   - dominatedScalar: one maximum at a time with early exit on the
//     first failing dimension — the portable pass that wins without
//     SIMD, because non-dominating maxima typically die on their first
//     coordinate.
//   - dominatedMasked: the 8-wide blocked pass with ≥/> bitmask
//     accumulation. gc does not vectorize it, so it does ~2× the
//     comparisons the early exit skips and loses to the scalar loop in
//     pure Go (BenchmarkSFSChainFilter) — but it is the exact portable
//     model of the assembly kernel, and the property tests run it as a
//     third oracle.
//   - dominatedBlocksAVX2 (kernel_amd64.s): the masked pass as
//     hand-written AVX2 — VCMPPD ≥/> masks over 8 lanes per iteration
//     with per-block early exit — selected per filter at construction
//     when the build, the CPU and the runtime flag allow it (kernel.go).
type chainFilter struct {
	d      int
	vecs   [][]float64 // per-dimension score vectors, position-addressed
	blocks []float64   // maxima coords, blocked column-major, NaN-padded
	n      int         // confirmed maxima count
	cand   []float64   // candidate coordinate scratch, len d
	avx2   bool        // captured from AVX2Enabled at construction
}

// newChainFilter returns a filter reading its coordinates from the
// compiled form's chain-dimension score vectors, or nil when the term is
// not a chain product — or when a dimension's ±Inf scores absorbed more
// than one value class (pref.InfCollapse), where coordinate dominance
// would over-kill rows the Pareto predicate leaves incomparable; callers
// fall back to the predicate-tree filter.
func newChainFilter(c *pref.Compiled) *chainFilter {
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
	return &chainFilter{
		d:    len(dims),
		vecs: vecs,
		cand: make([]float64, len(dims)),
		avx2: AVX2Enabled(),
	}
}

// dominated reports whether any confirmed maximum dominates row i:
// coordinate-wise ≥ on every dimension with > somewhere, NaN blocking
// (mv >= cv is false when either side is NaN). Dispatches the AVX2
// kernel when the filter captured it enabled, the scalar early-exit pass
// otherwise.
func (f *chainFilter) dominated(i int) bool {
	if f.n == 0 {
		return false
	}
	if f.avx2 {
		for k := 0; k < f.d; k++ {
			f.cand[k] = f.vecs[k][i]
		}
		nblocks := (f.n + filterBlock - 1) / filterBlock
		return dominatedBlocksAVX2(&f.cand[0], f.d, &f.blocks[0], nblocks) != 0
	}
	return f.dominatedScalar(i)
}

// dominatedScalar is the portable early-exit pass over the blocked
// store; see the chainFilter comment.
func (f *chainFilter) dominatedScalar(i int) bool {
outer:
	for w := 0; w < f.n; w++ {
		base := (w/filterBlock)*f.d*filterBlock + w%filterBlock
		strict := false
		for k := 0; k < f.d; k++ {
			cv := f.vecs[k][i]
			mv := f.blocks[base+k*filterBlock]
			if !(mv >= cv) {
				continue outer
			}
			if mv > cv {
				strict = true
			}
		}
		if strict {
			return true
		}
	}
	return false
}

// dominatedMasked is the blocked bitmask pass over the store: filterBlock
// maxima test per iteration, one dimension at a time across the block,
// with ≥ and > mask accumulation — the exact portable model of the
// assembly kernel (NaN pad lanes die on their first dimension, so full
// blocks need no tail handling). Kept as the third oracle and the
// measured pure-Go baseline; BenchmarkSFSChainFilter runs all passes.
func (f *chainFilter) dominatedMasked(i int) bool {
	nblocks := (f.n + filterBlock - 1) / filterBlock
	for b := 0; b < nblocks; b++ {
		base := b * f.d * filterBlock
		alive := uint32(1)<<filterBlock - 1
		var strict uint32
		for k := 0; k < f.d && alive != 0; k++ {
			cv := f.vecs[k][i]
			col := f.blocks[base+k*filterBlock : base+(k+1)*filterBlock]
			var ge, gt uint32
			for lane, mv := range col {
				if mv >= cv {
					ge |= 1 << lane
				}
				if mv > cv {
					gt |= 1 << lane
				}
			}
			alive &= ge
			strict |= gt
		}
		if alive&strict != 0 {
			return true
		}
	}
	return false
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
