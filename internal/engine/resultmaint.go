package engine

import (
	"math"

	"repro/internal/engine/resultcache"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Incremental maintenance: the write side of the result cache. Instead
// of invalidating on Insert, every cached BMO answer of the superseded
// generation is carried into the successor's memo (resultEntry
// implements relation.Carrier) by checking only the newcomer against the
// cached maxima — O(|maxima|) dominance tests per write versus the
// O(n·|maxima|) full recompute a cold query pays.
//
// Soundness, for any strict partial order <P (so for every preference
// constructor, not just chain products): let M be the maxima of
// candidate set C and t the appended tuple.
//
//   - If some m ∈ M dominates t (t <P m), then maxima(C ∪ {t}) = M:
//     t is not maximal, and t cannot dominate any member of M — t <P m
//     plus m′ <P t for some m′ ∈ M would give m′ <P m by transitivity,
//     contradicting M's mutual incomparability.
//   - Otherwise t is maximal in C ∪ {t}: any dominator of t would have a
//     maximal dominator in M by finite transitive closure, and no m ∈ M
//     dominates t. The new maxima are (M minus the members t dominates)
//     plus t — no non-maximal row can newly dominate a member of M.
//
// Checking against M alone is therefore exact. Row positions are stable
// under append (Insert never reorders), so carried indices stay valid;
// SortBy and bulk reloads publish generations with empty memos.
//
// The carry builds a successor entry rather than editing the cached one:
// the superseded generation's memo stays as it was for sessions pinned to
// a pre-insert Snapshot — the snapshot-isolation contract — and retires
// with that generation.

// Carry produces the successor generation's entry given the appended
// tuple t at position newIdx; r still reads the predecessor.
func (e *resultEntry) Carry(r *relation.Relation, t pref.Tuple, newIdx int) (any, int) {
	resultcache.NoteCarry()
	var ne *resultEntry
	if e.coords != nil {
		if c, ok := newcomerCoords(e.dims, t); ok {
			ne = e.carryCoords(c, newIdx)
		}
	}
	if ne == nil {
		ne = e.carryInterpreted(r, t, newIdx)
	}
	return ne, ne.bytes()
}

// newcomerCoords scores the appended tuple on the entry's chain
// dimensions; ok=false when any coordinate is ±Inf, where coordinate
// dominance can collapse distinct value classes (the pref.InfCollapse
// hazard) — the interpreted path takes over.
func newcomerCoords(dims []pref.Scorer, t pref.Tuple) ([]float64, bool) {
	c := make([]float64, len(dims))
	for d, s := range dims {
		c[d] = s.ScoreOf(t)
		if math.IsInf(c[d], 0) {
			return nil, false
		}
	}
	return c, true
}

// carryCoords is the chain-product fast path: raw coordinate dominance
// (dominates: a NaN coordinate blocks dominance, as in the block kernel)
// against the stored maxima coordinates. A dominated newcomer leaves the
// maxima as they are, so the successor shares e.
func (e *resultEntry) carryCoords(c []float64, newIdx int) *resultEntry {
	for _, mc := range e.coords {
		if dominates(mc, c) {
			return e
		}
	}
	ne := &resultEntry{pref: e.pref, dims: e.dims}
	ne.maxima = make([]int, 0, len(e.maxima)+1)
	ne.coords = make([][]float64, 0, len(e.coords)+1)
	for k, m := range e.maxima {
		if !dominates(c, e.coords[k]) {
			ne.maxima = append(ne.maxima, m)
			ne.coords = append(ne.coords, e.coords[k])
		}
	}
	// newIdx is the largest position in the generation, so appending
	// preserves ascending order.
	ne.maxima = append(ne.maxima, newIdx)
	ne.coords = append(ne.coords, c)
	return ne
}

// carryInterpreted checks the newcomer with the preference's own Less —
// exact for every constructor, O(|maxima|) interpreted dominance tests.
// When the newcomer is admitted through this path the successor entry
// drops the coordinate fast path (the newcomer's coordinates were not
// provably collapse-free); maintenance stays correct, just interpreted,
// for subsequent writes.
func (e *resultEntry) carryInterpreted(r *relation.Relation, t pref.Tuple, newIdx int) *resultEntry {
	p := e.pref
	for _, m := range e.maxima {
		if p.Less(t, r.Tuple(m)) {
			return e
		}
	}
	ne := &resultEntry{pref: p}
	ne.maxima = make([]int, 0, len(e.maxima)+1)
	for _, m := range e.maxima {
		if !p.Less(r.Tuple(m), t) {
			ne.maxima = append(ne.maxima, m)
		}
	}
	ne.maxima = append(ne.maxima, newIdx)
	return ne
}
