package engine

import (
	"cmp"
	"math"
	"slices"
	"sync"
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
//
// A gathered bind of a term in the flat fragment copies no column: it
// reads each leaf's column image at the candidates' positions and writes
// the scores and tie keys the dominance kernel compares straight into the
// slab (pref.BindFlat). Every other term compiles over the gathered copy.

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
// form is slot-addressed, each maximum's slot — so the result cache and
// the cross-shard fold can read what the evaluation already materialized.
// Only the maxima outlive the evaluation: a gathered form's vectors are
// borrowed memory (relation.Gathered), returned as soon as evalOn's keep
// hook has run.
type evaluated struct {
	maxima []int // ascending positions in the relation
	c      *pref.Compiled
	slots  []int // slots[k] addresses maxima[k] in c; nil: c is position-addressed
}

// at returns the rows of c that hold the maxima, in the maxima's order.
func (ev evaluated) at() []int {
	if ev.slots != nil {
		return ev.slots
	}
	return ev.maxima
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
	c, fused := bindGathered(p, g)
	if c == nil {
		return nil, false
	}
	if fused {
		defer releaseForm(c)
	}
	gatheredBinds.Add(1)
	cc.check()
	slots := planAndExecute(alg, p, r, c, g.Slots(), BindGathered, mode, cc)
	return finish(liftSlots(c, slots, idx)), true
}

// bindGathered binds p over the gathered candidates g: a term of the flat
// fragment straight into the kernel's vectors (bindFlat; fused reports
// the pooled form, which the caller hands back with releaseForm once
// nothing reads it), anything else — or a flat term with a leaf no column
// image serves — through pref.Compile; nil when the term fails to bind.
func bindGathered(p pref.Preference, g *relation.Gathered) (c *pref.Compiled, fused bool) {
	if c := bindFlat(p, g); c != nil {
		return c, true
	}
	c, _ = pref.Compile(p, g)
	return c, false
}

// formPool recycles the forms flat binds write (their shape storage), the
// way flatPool recycles record stores.
var formPool = sync.Pool{New: func() any { return new(pref.Compiled) }}

// bindFlat binds a term of the flat fragment over g on a pooled form
// (pref.BindFlat), or returns nil when the term does not bind flat.
func bindFlat(p pref.Preference, g *relation.Gathered) *pref.Compiled {
	if !pref.FlatShaped(p) {
		return nil
	}
	c := formPool.Get().(*pref.Compiled)
	if !pref.BindFlat(c, p, g) {
		formPool.Put(c)
		return nil
	}
	return c
}

// releaseForm returns a flat bind's form to the pool, dropping its views
// of the slab it was bound over.
func releaseForm(c *pref.Compiled) {
	clear(c.Flat().Dims)
	formPool.Put(c)
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
// flat shape of the form that evaluated them (a chain product's leaves,
// in term order): ok=false when the evaluation ran interpreted or the
// term is no chain product.
func (ev evaluated) chainCoords() (coords [][]float64, ok bool) {
	if ev.c == nil || ev.c.Flat() == nil {
		return nil, false
	}
	fs := ev.c.Flat()
	if dims, ok := chainDims(ev.c.Pref()); !ok || len(dims) != len(fs.Dims) {
		return nil, false
	}
	at, w := ev.at(), len(fs.Dims)
	coords = make([][]float64, len(at))
	backing := make([]float64, len(at)*w)
	for k, i := range at {
		coords[k] = backing[k*w : (k+1)*w : (k+1)*w]
		for d := range fs.Dims {
			coords[k][d] = fs.Dims[d].Score[i]
		}
	}
	return coords, true
}

// records copies the maxima's records out of the flat form that evaluated
// them — what the cross-shard fold compares, still readable once the
// form's slab is released; nil when the evaluation had no flat form (or
// no maximum).
func (ev evaluated) records() *pref.FlatShape {
	if ev.c == nil || ev.c.Flat() == nil || len(ev.maxima) == 0 {
		return nil
	}
	rec := newRecords()
	rec.AppendRows(ev.c.Flat(), ev.at())
	return rec
}

// recordsPool recycles records (pref.FlatShape.AppendRows targets): a
// statement's carried local maxima and the fold's union reuse their
// arrays.
var recordsPool = sync.Pool{New: func() any { return new(pref.FlatShape) }}

// newRecords returns an empty pooled record set; releaseRecords hands it
// back.
func newRecords() *pref.FlatShape {
	rec := recordsPool.Get().(*pref.FlatShape)
	rec.Dims = rec.Dims[:0]
	return rec
}

// Under relation.PoisonReleasedSlabs released records read NaN scores and
// no two equal keys, like a released slab.
func releaseRecords(rec *pref.FlatShape) {
	if relation.PoisonsReleased() {
		for d := range rec.Dims {
			dim := &rec.Dims[d]
			for i := range dim.Score {
				dim.Score[i] = math.NaN()
			}
			for i := range dim.Tie.Keys {
				dim.Tie.Keys[i] = uint64(i)
			}
		}
	}
	recordsPool.Put(rec)
}
