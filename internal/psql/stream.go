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
// queries run index-chained over the catalog table through
// engine.EvalStreamShardedCtx — a flat table as its one shard: the WHERE
// clause resolves to the cached per-shard selection index lists, the
// preference binds through the shared compile cache (position-addressed,
// so the candidate subset is irrelevant to the bound form), and not a
// single tuple materializes before the first yield — rows are projected
// straight off the table as they are confirmed. A one-shard table
// confirms every keyed term progressively, a sharded one the chain
// products (cross-shard raw coordinate order); other terms run one batch
// sharded evaluation under opts.Robust, and the remaining query shapes
// replay a batch execution.
//
// Every route observes ctx: a progressive scan polls it at the engine's
// stride, a batch fallback evaluates under it. When it dies the
// enumeration stops and its error is returned — rows already yielded are
// confirmed maxima, never wrong ones. The Partial is non-nil when a
// batch route ran under PolicyPartial and shards were missing.
// Options.Timeout and Options.Admission gate the ExecCtx fallback only:
// a stream lives as long as its consumer pulls, so bound it through ctx.
// A persistent table's row page that fails to read or verify stops the
// stream with its *store.PageError.
func ExecStreamCtx(ctx context.Context, q *Query, cat Catalog, opts Options, yield func(relation.Row) bool) (emitted int, part *engine.Partial, err error) {
	defer relation.RecoverPageError(&err)
	s, err := cat.lookup(q.From)
	if err != nil {
		return 0, nil, err
	}
	tm := buildTerms(q)
	if err := checkAttrs(q, s, tm); err != nil {
		return 0, nil, err
	}
	if q.ExplainPlan || !streamShape(q) {
		return replayExec(ctx, q, cat, opts, yield)
	}
	// Built simplified like Exec, so a stream and a batch execution of the
	// same statement share one compile-cache entry (and EXPLAIN's term
	// matches what actually evaluates). The ranked query model (Scorer +
	// TOP) is not a BMO stream.
	p, ranked, err := streamPref(q, tm)
	if err != nil {
		return 0, nil, err
	}
	if ranked {
		return replayExec(ctx, q, cat, opts, yield)
	}
	var sets engine.ShardSets
	if q.Where != nil {
		sets = make(engine.ShardSets, s.NumShards())
		for i := range sets {
			// Borrowed uncloned: the stream never mutates its candidate sets.
			sets[i] = filter.CompileCached(q.Where, s.Shard(i)).Indices()
		}
	}
	project, err := rowProjector(q, s)
	if err != nil {
		return 0, nil, err
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
	return emitted, st.Partial(), st.Err()
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
// execution. It is the shared structural gate of ExecStreamCtx and the
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
