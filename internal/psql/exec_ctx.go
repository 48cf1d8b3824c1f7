package psql

import (
	"context"
	"slices"

	"repro/internal/engine"
	"repro/internal/relation"
)

// Execution under a context: the serving-layer face of the engine's
// fault-tolerance stack. ExecCtx/RunCtx thread the caller's context
// through the whole pipeline (cooperative cancellation at the engine's
// stride), apply the Options.Timeout deadline and the Admission
// limiter, and surface PolicyPartial degradation in the Result —
// Run/Exec are their context.Background() wrappers over the same
// pipeline (as RunStream/ExecStream are of ExecStreamCtx, stream.go).

// Result is an execution's outcome: the rows plus the
// partial-result report when shards were missing under PolicyPartial.
type Result struct {
	// Rel holds the query result rows.
	Rel *relation.Relation
	// Partial is non-nil when the query ran over a sharded table under
	// PolicyPartial and shards failed: the result is exact over the
	// responsive shards (absent rows, never wrong ones) and Partial
	// lists what is missing and why. Nil for a complete result.
	Partial *engine.Partial
}

// RunCtx parses and executes a Preference SQL statement under a context;
// see ExecCtx.
func RunCtx(ctx context.Context, query string, cat Catalog, opts Options) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return ExecCtx(ctx, q, cat, opts)
}

// ExecCtx executes a parsed query under a context (Exec is its
// context.Background() wrapper). Admission (when configured) gates entry
// — overload sheds with a typed *engine.OverloadError before any
// evaluation work starts — then Options.Timeout bounds the run with a
// deadline derived from ctx, and the pipeline evaluates with cooperative
// cancellation (ctx.Err() comes back as the error; the result is never
// torn). Over sharded tables Options.Robust selects the per-shard fault
// policy; under PolicyPartial a degraded result reports its missing
// shards in Result.Partial. A persistent table's row page that fails
// to read or verify is the statement's error (a *store.PageError).
func ExecCtx(ctx context.Context, q *Query, cat Catalog, opts Options) (res *Result, err error) {
	defer relation.RecoverPageError(&err)
	release, err := opts.Admission.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return execPipeline(ctx, q, cat, opts)
}

// mergePartials folds the partial reports of consecutive pipeline stages
// into one: the union of missing shards, ascending, keeping the first
// stage's cause per shard (a later stage sees the shard's already-empty
// candidate set and does not visit it again).
func mergePartials(a, b *engine.Partial) *engine.Partial {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	causes := make(map[int]error, len(a.Missing)+len(b.Missing))
	for k, shard := range b.Missing {
		causes[shard] = b.Errs[k]
	}
	for k, shard := range a.Missing {
		causes[shard] = a.Errs[k]
	}
	merged := &engine.Partial{}
	for shard := range causes {
		merged.Missing = append(merged.Missing, shard)
	}
	slices.Sort(merged.Missing)
	for _, shard := range merged.Missing {
		merged.Errs = append(merged.Errs, causes[shard])
	}
	return merged
}
