package psql

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/quality"
	"repro/internal/rank"
	"repro/internal/relation"
)

// Catalog resolves table names for query execution. A table is either a
// flat *relation.Relation or a *relation.Sharded; a flat table runs as
// one shard (relation.OneShard), so every statement — batch, stream or
// EXPLAIN — takes the one sharded pipeline, and a flat relation and its
// view share every cached result.
type Catalog map[string]relation.Table

// Drop removes a table from the catalog and reports whether it existed.
// It sweeps nothing: what is cached about the table — result maxima,
// rank score vectors, planner statistics — lives on its generations
// (relation.Memo) and is freed with them once no pinned snapshot reads
// them.
func (c Catalog) Drop(name string) bool {
	if _, ok := c[name]; !ok {
		return false
	}
	delete(c, name)
	return true
}

// Replace installs a table under the name; a table it displaces frees its
// cached state as a dropped one does (see Drop).
func (c Catalog) Replace(name string, tbl relation.Table) {
	c[name] = tbl
}

// sharded is the one place a catalog table's layout is read: a sharded
// table is itself, a flat relation its one-shard view.
func sharded(tbl relation.Table) (*relation.Sharded, bool) {
	switch t := tbl.(type) {
	case *relation.Sharded:
		return t, true
	case *relation.Relation:
		return relation.OneShard(t), true
	}
	return nil, false
}

// lookup resolves a statement's FROM table to the table it runs on.
func (c Catalog) lookup(name string) (*relation.Sharded, error) {
	tbl, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("psql: unknown relation %q", name)
	}
	s, ok := sharded(tbl)
	if !ok {
		return nil, fmt.Errorf("psql: relation %q has unsupported storage %T", name, tbl)
	}
	return s, nil
}

// Options configure execution.
type Options struct {
	// Algorithm selects the BMO evaluation strategy (engine.Auto default).
	Algorithm engine.Algorithm
	// Timeout, when positive, bounds a batch execution with a deadline
	// derived from the caller's context (ExecCtx/RunCtx; Run and Exec
	// pass context.Background()). Streams apply it to their batch
	// fallback only — bound a stream through ExecStreamCtx's context.
	Timeout time.Duration
	// Robust configures the fault tolerance of evaluation, batch or
	// streamed: the partial-result policy plus an optional per-shard
	// deadline. The zero value is strict and deadline-free. A flat table
	// is one shard, so ShardTimeout bounds its evaluation too; its one
	// shard failing fails the query under either policy. The grouped step
	// is always strict.
	Robust engine.Robust
	// Admission, when non-nil, gates execution behind a bounded
	// in-flight semaphore: the query acquires a slot before evaluating
	// (queueing up to the limiter's timeout) and overload sheds with a
	// typed *engine.OverloadError instead of piling up work.
	Admission *engine.Admission
}

// Run parses and executes a Preference SQL statement against the catalog.
func Run(query string, cat Catalog, opts Options) (*relation.Relation, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Exec(q, cat, opts)
}

// Exec executes a parsed query. The evaluation pipeline follows §5 and
// §6.1: hard WHERE selection first, then the PREFERRING soft constraint
// under BMO semantics (grouped per GROUPING BY), then CASCADE preference
// queries, the BUT ONLY quality filter, SKYLINE OF, ORDER BY, TOP-k and
// finally projection. A TOP-k with a RANK preference switches to the
// ranked (k-best) query model of §6.2 instead of BMO.
//
// The pipeline is index-chained per shard (a flat table is one shard):
// the WHERE clause compiles to a selection (filter.Compile), each soft
// step evaluates over the surviving row positions, and rows materialize
// only at ORDER BY / projection time. Every compiled form binds to the
// shard's column arrays (or a gathered copy of the candidates) and is
// dropped when the statement ends; preference terms run through
// algebra.Simplify first, so the evaluated term matches the one EXPLAIN
// reports.
func Exec(q *Query, cat Catalog, opts Options) (*relation.Relation, error) {
	res, err := ExecCtx(context.Background(), q, cat, opts)
	if err != nil {
		return nil, err
	}
	return res.Rel, nil
}

// execPipeline runs a parsed query. The context is live here: admission
// and the Options.Timeout deadline were applied by ExecCtx before.
func execPipeline(ctx context.Context, q *Query, cat Catalog, opts Options) (*Result, error) {
	if q.ExplainPlan {
		text, err := Explain(q, cat, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Rel: explainRelation(text)}, nil
	}
	s, err := cat.lookup(q.From)
	if err != nil {
		return nil, err
	}
	tm := buildTerms(q)
	if err := checkAttrs(q, s, tm); err != nil {
		return nil, err
	}
	return execSharded(ctx, q, s, tm, opts)
}

// terms holds a statement's preference terms, each built from its clause
// exactly once: the attribute check, the pipeline steps, the BUT ONLY
// resolution, the streaming route and EXPLAIN all read these instead of
// re-building the same term per consumer. A clause that fails to build
// keeps its error for the step that would evaluate it, so errors surface
// where (and only if) they always did.
type terms struct {
	preferring builtTerm   // zero without a PREFERRING clause
	cascades   []builtTerm // aligned with Query.Cascades
}

// builtTerm is one clause's built preference, or why it did not build.
type builtTerm struct {
	p   pref.Preference
	err error
}

// buildTerms builds every PREFERRING / CASCADE clause of q.
func buildTerms(q *Query) terms {
	var tm terms
	if q.Preferring != nil {
		tm.preferring.p, tm.preferring.err = q.Preferring.Build()
	}
	if len(q.Cascades) > 0 {
		tm.cascades = make([]builtTerm, len(q.Cascades))
		for i, c := range q.Cascades {
			tm.cascades[i].p, tm.cascades[i].err = c.Build()
		}
	}
	return tm
}

// each calls f on every term that built, PREFERRING first.
func (tm terms) each(f func(p pref.Preference)) {
	if tm.preferring.p != nil && tm.preferring.err == nil {
		f(tm.preferring.p)
	}
	for _, c := range tm.cascades {
		if c.err == nil {
			f(c.p)
		}
	}
}

// result packages the pipeline's rows with its partial-result report.
func result(rel *relation.Relation, part *engine.Partial, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Rel: rel, Partial: part}, nil
}

// finishRows applies the materialized pipeline tail: ORDER BY, TOP-k
// truncation and projection.
func finishRows(q *Query, out *relation.Relation) (*relation.Relation, error) {
	if len(q.OrderBy) > 0 {
		// Pick built a fresh row slice, so the in-place sort cannot disturb
		// the catalog relation.
		out.SortBy(func(a, b pref.Tuple) bool { return orderLess(q.OrderBy, a, b) })
	}
	if q.Top > 0 && out.Len() > q.Top {
		top := make([]int, q.Top)
		for i := range top {
			top[i] = i
		}
		out = out.Pick(top)
	}
	return project(q, out)
}

// execSharded runs the §5/§6.1 pipeline index-chained per shard — a flat
// table as its one shard. The WHERE clause binds per shard, every soft
// step evaluates shard-local and merges cross-shard
// (engine.BMOShardedOnFilteredCtxKeyed / GroupByShardedOn,
// rank.TopKShardedCtx for the ranked model), the BUT ONLY quality filter
// threshold-scans each shard's measure vectors, and rows materialize only
// at the tail — in shard-major global id order, the sharded image of base
// relation order (a flat table's own row order: GlobalID(0, i) == i).
//
// Every caller runs the same steps whatever its context: per-shard panic
// containment and deadlines, cooperative cancellation (free under an
// uncancellable context), result-cache serving of the first soft step,
// and PolicyPartial degradation — each stage's missing shards accumulate
// into Result.Partial. The grouped step is the strict exception: groups
// span shards through the merge dictionary, so there is no per-shard
// boundary to degrade along and any shard failure fails it.
func execSharded(ctx context.Context, q *Query, s *relation.Sharded, tm terms, opts Options) (*Result, error) {
	var part *engine.Partial
	// bmo is one sharded soft step. keyed marks the first one: without a
	// WHERE clause its per-shard candidate sets are whole shards — the
	// shape the result cache keys; a WHERE-scoped first step and later
	// steps (over reduced sets) always evaluate. A non-nil keep fuses the
	// BUT ONLY threshold in.
	bmo := func(p pref.Preference, sets engine.ShardSets, keep engine.ShardFilter, keyed bool) (engine.ShardSets, error) {
		out, pt, err := engine.BMOShardedOnFilteredCtxKeyed(ctx, p, s, opts.Algorithm, sets, keyed, keep, opts.Robust)
		if err != nil {
			return nil, err
		}
		part = mergePartials(part, pt)
		return out, nil
	}
	sets := make(engine.ShardSets, s.NumShards())
	if q.Where != nil {
		for i := 0; i < s.NumShards(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sets[i] = filter.Compile(q.Where, s.Shard(i)).Indices()
		}
	}
	// The BUT ONLY threshold fuses into the last soft pass before it —
	// the final CASCADE, else a non-grouped PREFERRING — so its scan runs
	// inside the per-shard fan-out on hot columns instead of as a
	// separate serial step (the engine keeps the filter-after-merge
	// semantics). Grouped PREFERRING without cascades, and the error
	// cases, keep the separate step below.
	fuseButCascade := q.ButOnly != nil && len(q.Cascades) > 0
	fuseButPreferring := q.ButOnly != nil && len(q.Cascades) == 0 &&
		q.Preferring != nil && len(q.GroupingBy) == 0
	butFused := false
	var builtPref pref.Preference
	if q.Preferring != nil {
		built, err := tm.preferring.p, tm.preferring.err
		if err != nil {
			return nil, err
		}
		builtPref = built
		p := algebra.Simplify(built)
		if sc, ok := built.(pref.Scorer); ok && q.Top > 0 {
			// Ranked query model: per-shard k-best off the score vectors,
			// heap-merged to the global k. Dispatch on the term as written
			// (like Explain): simplification can collapse a non-Scorer
			// accumulation to a Scorer leaf, which must stay a BMO query
			// with TOP-k truncation.
			results, pt, err := rank.TopKShardedCtx(ctx, sc, s, q.Top, sets, opts.Robust)
			if err != nil {
				return nil, err
			}
			gids := make([]int, len(results))
			for i, r := range results {
				gids[i] = r.Row
			}
			rel, err := project(q, s.Pick(gids))
			return result(rel, pt, err)
		}
		if len(q.GroupingBy) > 0 {
			if sets, err = engine.GroupByShardedOn(ctx, p, q.GroupingBy, s, opts.Algorithm, sets); err != nil {
				return nil, err
			}
		} else {
			var keep engine.ShardFilter
			if fuseButPreferring {
				keep, butFused = butShardFilter(q, tm, s), true
			}
			if sets, err = bmo(p, sets, keep, true); err != nil {
				return nil, err
			}
		}
	}
	for ci, c := range tm.cascades {
		built, err := c.p, c.err
		if err != nil {
			return nil, err
		}
		if builtPref == nil {
			builtPref = built
		}
		var keep engine.ShardFilter
		if fuseButCascade && ci == len(q.Cascades)-1 {
			keep, butFused = butShardFilter(q, tm, s), true
		}
		if sets, err = bmo(algebra.Simplify(built), sets, keep, false); err != nil {
			return nil, err
		}
	}
	if q.ButOnly != nil && !butFused {
		if builtPref == nil {
			return nil, fmt.Errorf("psql: BUT ONLY requires a PREFERRING clause")
		}
		keep := butShardFilter(q, tm, s)
		for i := 0; i < s.NumShards(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sets[i] = keep(i, sets.Resolve(s, i))
		}
	}
	if q.Skyline != nil {
		p, err := q.Skyline.Preference()
		if err != nil {
			return nil, err
		}
		if sets, err = bmo(p, sets, nil, false); err != nil {
			return nil, err
		}
	}
	rel, err := finishRows(q, s.Pick(sets.GlobalIDs(s)))
	return result(rel, part, err)
}

// checkAttrs validates every attribute reference in the query against the
// table's schema, so typos fail fast rather than silently matching
// nothing.
func checkAttrs(q *Query, rel relation.Table, tm terms) error {
	var missing []string
	check := func(attr string) {
		if _, ok := rel.Schema().Index(attr); !ok {
			missing = append(missing, attr)
		}
	}
	for _, a := range q.Select {
		check(a)
	}
	for _, a := range q.GroupingBy {
		check(a)
	}
	for _, o := range q.OrderBy {
		check(o.Attr)
	}
	tm.each(func(p pref.Preference) {
		for _, a := range p.Attrs() {
			check(a)
		}
	})
	if q.Skyline != nil {
		for _, d := range q.Skyline.Dims {
			check(d.Attr)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("psql: unknown column(s) %v in relation %q", missing, rel.Name())
	}
	return nil
}

// butFilter appends to dst the candidates idx of r the BUT ONLY tree
// accepts, in one threshold scan through the compiled tree. The measure
// vectors bind under the subset rule every bind layer shares
// (relation.GatherWorthwhile): a small candidate set gathers just those
// rows — binding a measure vector otherwise costs one pass over the
// WHOLE relation — and anything larger binds r itself. The gathered
// measure vectors are ordinary GC-owned memory (the gather does not
// Borrow): the compiled tree holds them.
func butFilter(e ButExpr, byAttr map[string]pref.Preference, r *relation.Relation, idx, dst []int) []int {
	if relation.GatherWorthwhile(len(idx), r.Len()) {
		keep := e.compile(byAttr, r.Gather(idx))
		for ord, i := range idx {
			if keep(ord) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	keep := e.compile(byAttr, r)
	for _, i := range idx {
		if keep(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// butShardFilter lowers the query's BUT ONLY tree to the per-shard
// acceptance filter the sharded BMO pass fuses in (butFilter per shard,
// into a fresh slice: the maxima it is handed still enter the merge).
// The base-preference index is resolved once; per-shard binds share no
// state, so concurrent shard calls from the fan-out are safe.
func butShardFilter(q *Query, tm terms, s *relation.Sharded) engine.ShardFilter {
	byAttr := collectBasePrefs(tm)
	return func(i int, idx []int) []int {
		return butFilter(q.ButOnly, byAttr, s.Shard(i), idx, idx[:0:0])
	}
}

// compile lowers a BUT ONLY condition tree to a compiled predicate over
// the rows of a source — the base relation, or a gathered candidate
// subset: each LEVEL/DISTANCE leaf binds its quality vector
// (quality.Condition.Bind) and the connectives combine closures.
func (e *ButAnd) compile(byAttr map[string]pref.Preference, r pref.Source) func(int) bool {
	l, rr := e.L.compile(byAttr, r), e.R.compile(byAttr, r)
	return func(i int) bool { return l(i) && rr(i) }
}

func (e *ButOr) compile(byAttr map[string]pref.Preference, r pref.Source) func(int) bool {
	l, rr := e.L.compile(byAttr, r), e.R.compile(byAttr, r)
	return func(i int) bool { return l(i) || rr(i) }
}

func (e *ButCond) compile(byAttr map[string]pref.Preference, r pref.Source) func(int) bool {
	return e.C.Bind(byAttr, r)
}

// collectBasePrefs indexes the base preferences of PREFERRING and CASCADE
// clauses by attribute for BUT ONLY resolution.
func collectBasePrefs(tm terms) map[string]pref.Preference {
	out := make(map[string]pref.Preference)
	tm.each(func(p pref.Preference) {
		for attr, bp := range quality.BasePrefsByAttr(p) {
			if _, dup := out[attr]; !dup {
				out[attr] = bp
			}
		}
	})
	return out
}

// orderLess compares tuples under the ORDER BY directives.
func orderLess(items []OrderItem, a, b pref.Tuple) bool {
	for _, it := range items {
		av, aok := a.Get(it.Attr)
		bv, bok := b.Get(it.Attr)
		if !aok || !bok {
			continue
		}
		c, ok := pref.CompareValues(av, bv)
		if !ok || c == 0 {
			continue
		}
		if it.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// project applies the SELECT list and DISTINCT.
func project(q *Query, rel *relation.Relation) (*relation.Relation, error) {
	out := rel
	if len(q.Select) > 0 {
		p, err := out.Project(q.Select)
		if err != nil {
			return nil, err
		}
		out = p
	}
	if q.Distinct {
		d, err := out.DistinctProject(out.Schema().Names())
		if err != nil {
			return nil, err
		}
		out = d
	}
	return out, nil
}

// makeCondition builds a BUT ONLY quality condition.
func makeCondition(kind, attr, op string, threshold float64) quality.Condition {
	return quality.Condition{Kind: kind, Attr: attr, Op: op, Threshold: threshold}
}
