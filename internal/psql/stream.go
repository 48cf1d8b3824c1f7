package psql

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// RunStream parses and executes a Preference SQL statement, yielding result
// rows as they are confirmed rather than after the full evaluation — the
// progressive-delivery mode of the §5 evaluation layer. yield receives each
// projected row and returns false to stop early (e.g. a web front-end that
// fills its first page). It returns the number of rows emitted.
//
// Queries whose single soft clause is a PREFERRING or SKYLINE OF term
// stream truly progressively when the preference has a compatible sort key;
// everything else (grouping, cascades, BUT ONLY, ORDER BY, DISTINCT, the
// ranked model) falls back to batch execution and replays the finished
// result through yield, so callers need no special-casing.
//
// Ordering caveat: streamed rows arrive in confirmation order (best sort
// key first), not relation order. With TOP k this means the streaming path
// serves the k best-keyed members of the BMO set, while Exec — and the
// batch fallback — truncate the BMO set in relation row order. Both are k
// members of the same BMO result; callers that need one specific subset
// should ORDER BY (which forces the batch path).
func RunStream(query string, cat Catalog, opts Options, yield func(relation.Row) bool) (int, error) {
	q, err := Parse(query)
	if err != nil {
		return 0, err
	}
	return ExecStream(q, cat, opts, yield)
}

// ExecStream is RunStream over a parsed query: ExecStreamCtx under
// context.Background(), without the partial-result report.
func ExecStream(q *Query, cat Catalog, opts Options, yield func(relation.Row) bool) (int, error) {
	emitted, _, err := ExecStreamCtx(context.Background(), q, cat, opts, yield)
	return emitted, err
}

// ExecStreamCtx streams a parsed query under a context. Streamable
// queries run index-chained over the base catalog relation:
// the WHERE clause resolves to the cached selection index list, the
// preference binds through the shared compile cache (position-addressed,
// so the candidate subset is irrelevant to the bound form), and not a
// single tuple materializes before the first yield — rows are projected
// straight off the base relation as they are confirmed. Sharded tables
// stream through engine.EvalStreamShardedCtx: per-shard WHERE index
// lists, per-shard cached bound forms, and cross-shard progressive
// confirmation for chain products (one batch sharded evaluation under
// opts.Robust otherwise, like the flat stream's keyless fallback).
//
// Every route observes ctx: a progressive scan polls it at the engine's
// stride, a batch fallback evaluates under it. When it dies the
// enumeration stops and its error is returned — rows already yielded are
// confirmed maxima, never wrong ones. The Partial is non-nil when a
// sharded batch route ran under PolicyPartial and shards were missing.
// Options.Timeout and Options.Admission gate the ExecCtx fallback only:
// a stream lives as long as its consumer pulls, so bound it through ctx.
func ExecStreamCtx(ctx context.Context, q *Query, cat Catalog, opts Options, yield func(relation.Row) bool) (int, *engine.Partial, error) {
	if sh, sharded := cat[q.From].(*relation.Sharded); sharded {
		emitted, part, streamed, err := execStreamSharded(ctx, q, sh, opts, yield)
		if streamed || err != nil {
			return emitted, part, err
		}
		return replayExec(ctx, q, cat, opts, yield)
	}
	p, base, idx, ok, err := streamablePlan(q, cat)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return replayExec(ctx, q, cat, opts, yield)
	}

	project, err := rowProjector(q, base)
	if err != nil {
		return 0, nil, err
	}
	st := engine.EvalStreamCtx(ctx, p, base, opts.Algorithm, idx)
	defer st.Close()
	emitted := 0
	st.Each(func(row int) bool {
		emitted++
		if !yield(project(base.Row(row))) {
			return false
		}
		return q.Top <= 0 || emitted < q.Top
	})
	return emitted, nil, st.Err()
}

// replayExec is the batch fallback: execute fully and replay the result
// rows through yield.
func replayExec(ctx context.Context, q *Query, cat Catalog, opts Options, yield func(relation.Row) bool) (int, *engine.Partial, error) {
	res, err := ExecCtx(ctx, q, cat, opts)
	if err != nil {
		return 0, nil, err
	}
	emitted := 0
	for i := 0; i < res.Rel.Len(); i++ {
		emitted++
		if !yield(res.Rel.Row(i)) {
			break
		}
	}
	return emitted, res.Partial, nil
}

// execStreamSharded serves a streamable query over a sharded table;
// streamed=false (with no rows emitted) sends the caller to the batch
// fallback.
func execStreamSharded(ctx context.Context, q *Query, s *relation.Sharded, opts Options, yield func(relation.Row) bool) (emitted int, part *engine.Partial, streamed bool, err error) {
	tm := buildTerms(q)
	if err := checkAttrs(q, s, tm); err != nil {
		return 0, nil, false, err
	}
	if q.ExplainPlan || !streamShape(q) {
		return 0, nil, false, nil
	}
	p, ranked, err := streamPref(q, tm)
	if err != nil || ranked {
		return 0, nil, false, err
	}
	var sets engine.ShardSets
	if q.Where != nil {
		sets = make(engine.ShardSets, s.NumShards())
		for i := 0; i < s.NumShards(); i++ {
			// Borrowed uncloned like the flat path: the stream never
			// mutates its candidate sets.
			sets[i] = filter.CompileCached(q.Where, s.Shard(i)).Indices()
		}
	}
	project, err := rowProjector(q, s)
	if err != nil {
		return 0, nil, false, err
	}
	st := engine.EvalStreamShardedCtx(ctx, p, s, opts.Algorithm, sets, opts.Robust)
	defer st.Close()
	st.Each(func(gid int) bool {
		emitted++
		if !yield(project(s.Row(gid))) {
			return false
		}
		return q.Top <= 0 || emitted < q.Top
	})
	return emitted, st.Partial(), true, st.Err()
}

// streamPref builds and simplifies the single soft-clause preference of
// a stream-shaped query; ranked=true flags the Scorer+TOP combination
// that belongs to the ranked query model instead.
func streamPref(q *Query, tm terms) (p pref.Preference, ranked bool, err error) {
	if q.Preferring != nil {
		built, err := tm.preferring.p, tm.preferring.err
		if err != nil {
			return nil, false, err
		}
		if _, scored := built.(pref.Scorer); scored && q.Top > 0 {
			return nil, true, nil
		}
		return algebra.Simplify(built), false, nil
	}
	built, err := q.Skyline.Preference()
	if err != nil {
		return nil, false, err
	}
	return algebra.Simplify(built), false, nil
}

// streamShape reports whether the query has the single-soft-clause BMO
// structure the streaming path serves progressively: exactly one of
// PREFERRING / SKYLINE OF and none of the clauses that force batch
// execution. It is the shared structural gate of streamablePlan and the
// EXPLAIN streaming note; the ranked model (Scorer + TOP) and EXPLAIN
// statements are excluded by their callers, which have the built term /
// the context at hand.
func streamShape(q *Query) bool {
	if q.Distinct || len(q.GroupingBy) > 0 || len(q.Cascades) > 0 ||
		len(q.OrderBy) > 0 || q.ButOnly != nil {
		return false
	}
	return (q.Preferring != nil) != (q.Skyline != nil)
}

// streamablePlan reports whether the query is a single-soft-clause BMO
// query that can stream; if so it returns the preference, the base
// catalog relation and the candidate index list (nil = full scan, a
// cache-served WHERE index list otherwise).
func streamablePlan(q *Query, cat Catalog) (pref.Preference, *relation.Relation, []int, bool, error) {
	tbl, found := cat[q.From]
	if !found {
		return nil, nil, nil, false, fmt.Errorf("psql: unknown relation %q", q.From)
	}
	rel, flat := tbl.(*relation.Relation)
	if !flat {
		return nil, nil, nil, false, fmt.Errorf("psql: relation %q has unsupported storage %T", q.From, tbl)
	}
	tm := buildTerms(q)
	if err := checkAttrs(q, rel, tm); err != nil {
		return nil, nil, nil, false, err
	}
	if q.ExplainPlan || !streamShape(q) {
		return nil, nil, nil, false, nil
	}
	// Built simplified like Exec, so a stream and a batch execution of
	// the same statement share one compile-cache entry (and EXPLAIN's
	// term matches what actually evaluates). The ranked query model
	// (Scorer + TOP) is not a BMO stream.
	p, ranked, err := streamPref(q, tm)
	if err != nil || ranked {
		return nil, nil, nil, false, err
	}
	var idx []int
	if q.Where != nil {
		// Compiled selection with a cached bitmap: the stream visits the
		// surviving row positions of the base relation directly. Like
		// Exec, this reads the memoized index list uncloned — the stream
		// only borrows it and never mutates.
		idx = filter.CompileCached(q.Where, rel).Indices()
	}
	return p, rel, idx, true, nil
}

// rowProjector compiles the SELECT list into a per-row projection function.
func rowProjector(q *Query, rel relation.Table) (func(relation.Row) relation.Row, error) {
	if len(q.Select) == 0 {
		return func(r relation.Row) relation.Row { return r }, nil
	}
	idx := make([]int, len(q.Select))
	for k, a := range q.Select {
		i, ok := rel.Schema().Index(a)
		if !ok {
			return nil, fmt.Errorf("psql: no column %q in relation %q", a, rel.Name())
		}
		idx[k] = i
	}
	return func(r relation.Row) relation.Row {
		out := make(relation.Row, len(idx))
		for k, i := range idx {
			out[k] = r[i]
		}
		return out
	}, nil
}
