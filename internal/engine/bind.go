package engine

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Bind scope: which rows a BMO step binds its term over. The paper's
// query model with hard constraints is σ[P](σ_H(R)) — the soft step is
// defined over the hard-selected candidates — so a statement seen for
// the first time should cost O(|candidates|), not O(|R|). The rule is
// internal and reads only the input: a bound form already in the compile
// cache is free and always used; otherwise a candidate set that is a
// small fraction of the relation (relation.GatherWorthwhile) binds over a
// gathered copy of just those rows — ephemeral, never cached, addressed
// by slot — and anything larger binds the whole relation through the
// cache as before, where the next statement sharing the term reuses it.

// BindScope names the bind a BMO step performs.
type BindScope int

// Bind scopes.
const (
	// BindFull is a cold bind over the whole relation; the bound form
	// enters the compile cache.
	BindFull BindScope = iota
	// BindCached reuses the whole-relation bound form the compile cache
	// holds for the relation's current version.
	BindCached
	// BindGathered binds over a gathered copy of the candidate rows only;
	// the form is dropped with the statement.
	BindGathered
)

// String renders the scope the way EXPLAIN prints it.
func (s BindScope) String() string {
	switch s {
	case BindCached:
		return "cached"
	case BindGathered:
		return "gathered"
	}
	return "full (cold)"
}

// BindScopeOf reports the bind a compiled BMO step over m candidate rows
// of r would perform right now, without binding anything. EXPLAIN and
// the planner's cost model use it; execution decides by the same rule.
func BindScopeOf(p pref.Preference, r *relation.Relation, m int) BindScope {
	if r == nil {
		return BindFull
	}
	kt := keyTerm(p)
	switch {
	case kt.gathers(r, m):
		return BindGathered
	case kt.compileCached(r):
		return BindCached
	}
	return BindFull
}

// gathers is the subset rule: m candidate rows of r bind gathered when
// they are a small fraction of r and no whole-relation form is cached.
// The cardinality test comes first so large candidate sets (the repeated
// unfiltered statement) never pay the cache probe.
func (kt keyedTerm) gathers(r *relation.Relation, m int) bool {
	return relation.GatherWorthwhile(m, r.Len()) && !kt.compileCached(r)
}

// gatheredBinds counts gathered binds: they bypass the compile cache by
// construction, so they are neither its hits nor its misses.
var gatheredBinds atomic.Uint64

// GatheredBinds returns the cumulative number of gathered (ephemeral,
// candidate-proportional) binds — the third bind outcome next to the
// compile cache's hits and misses (CompileCacheStats).
func GatheredBinds() uint64 { return gatheredBinds.Load() }

// evaluated is what one BMO evaluation leaves behind besides the maxima:
// the bound form that ran (nil when it ran interpreted) and, when that
// form is slot-addressed, each maximum's slot — so the result cache can
// read coordinates the evaluation already materialized. Only the maxima
// outlive the evaluation: a gathered form's vectors are borrowed memory
// (relation.Gathered), returned as soon as evalOn's keep hook has run.
type evaluated struct {
	maxima []int // ascending positions in the relation
	c      *pref.Compiled
	slots  []int // slots[k] addresses maxima[k] in c; nil: c is position-addressed
}

// evalOn is the shared evaluation core behind every BMO entry point:
// choose the bind scope, bind, plan (under Auto) and run. The term
// arrives with its cache key rendered (keyTerm) — once per call, however
// many shards the caller evaluates it on. keep, when non-nil, sees the
// finished evaluation — bound form included — before anything borrowed
// is returned: the result-cache store copies what it keeps there.
func evalOn(kt keyedTerm, r *relation.Relation, alg Algorithm, mode EvalMode, idx []int, cc *canceller, keep func(evaluated)) []int {
	p := kt.p
	finish := func(ev evaluated) []int {
		if keep != nil {
			keep(ev)
		}
		return ev.maxima
	}
	if alg == Decomposition {
		// The decomposition evaluator compiles per sub-term inside the
		// recursion (see decompose.go); binding the root term up front
		// would be pure overhead.
		return finish(evaluated{maxima: decomposedModeCC(p, r, idx, mode, cc)})
	}
	if mode == EvalInterpreted || r == nil || !pref.Compilable(p) {
		return finish(evaluated{maxima: planAndExecute(alg, p, r, nil, idx, BindFull, mode, cc)})
	}
	if kt.gathers(r, len(idx)) {
		cc.check()
		// A gathered bind can only fail where the full bind fails too (an
		// ordinal layer past its coding cap); the cached path below then
		// records the negative outcome.
		if maxima, ok := evalGathered(p, r, alg, mode, idx, cc, finish); ok {
			return maxima
		}
	}
	c, hit := cachedCompile(kt, r)
	scope := BindFull
	if hit {
		scope = BindCached
	}
	return finish(evaluated{maxima: planAndExecute(alg, p, r, c, idx, scope, mode, cc), c: c})
}

// evalGathered evaluates over a gathered bind of the candidates idx. The
// source, the form bound over it and the slot list live in one borrowed
// slab, released on this goroutine when the evaluation is over — after
// finish has handed the form to whoever copies from it, and equally when
// a cancelled run unwinds through here (an abandoned shard worker keeps
// its slab until it gets that far). ok=false when the term fails to bind.
func evalGathered(p pref.Preference, r *relation.Relation, alg Algorithm, mode EvalMode, idx []int, cc *canceller, finish func(evaluated) []int) (maxima []int, ok bool) {
	g := r.Gather(idx).Borrow()
	defer g.Release()
	c, ok := pref.Compile(p, g)
	if !ok {
		return nil, false
	}
	gatheredBinds.Add(1)
	cc.check()
	slots := planAndExecute(alg, p, r, c, g.Slots(), BindGathered, mode, cc)
	return finish(liftSlots(c, slots, idx)), true
}

// planAndExecute resolves Auto through the planner — costed for the
// bind scope that actually ran — and dispatches the algorithm. idx
// addresses c: relation positions, or slots of a gathered form.
func planAndExecute(alg Algorithm, p pref.Preference, r *relation.Relation, c *pref.Compiled, idx []int, scope BindScope, mode EvalMode, cc *canceller) []int {
	workers := 1
	if alg == Auto {
		pl := planCore(p, r, len(idx), Env{Mode: mode}, scope)
		alg, workers = pl.Algorithm, pl.Workers
	}
	return execute(alg, workers, p, r, c, idx, cc)
}

// liftSlots maps the maximal slots of a gathered evaluation back to
// ascending relation positions.
func liftSlots(c *pref.Compiled, slots, idx []int) evaluated {
	maxima := make([]int, len(slots))
	for k, s := range slots {
		maxima[k] = idx[s]
	}
	if !slices.IsSorted(maxima) {
		// The candidate list was not ascending: order the slots by the
		// position they stand for.
		slices.SortFunc(slots, func(a, b int) int { return cmp.Compare(idx[a], idx[b]) })
		for k, s := range slots {
			maxima[k] = idx[s]
		}
	}
	return evaluated{maxima: maxima, c: c, slots: slots}
}

// chainCoords reads the maxima's chain-dimension coordinates from the
// bound form that evaluated them: ok=false when the evaluation ran
// interpreted or the form lacks a dimension's vector.
func (ev evaluated) chainCoords() (coords [][]float64, ok bool) {
	if ev.c == nil {
		return nil, false
	}
	// ScoreVec is keyed by sub-term identity of the form's own tree (a
	// cache-served form may stem from a structurally identical one).
	dims, ok := chainDims(ev.c.Pref())
	if !ok {
		return nil, false
	}
	vecs := make([][]float64, len(dims))
	for d, s := range dims {
		if vecs[d] = ev.c.ScoreVec(s); vecs[d] == nil {
			return nil, false
		}
	}
	at := ev.slots
	if at == nil {
		at = ev.maxima
	}
	coords = make([][]float64, len(at))
	backing := make([]float64, len(at)*len(dims))
	for k, i := range at {
		coords[k] = backing[k*len(dims) : (k+1)*len(dims) : (k+1)*len(dims)]
		for d := range dims {
			coords[k][d] = vecs[d][i]
		}
	}
	return coords, true
}
