package relation

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// Fault-tolerant shard fan-out. FanShardsCtx is the bounded sweep every
// shard-parallel evaluation layer shares (engine BMO/groupby fan-out,
// rank's per-shard scans): per-shard panic containment (a crashed worker
// becomes a per-shard error instead of a process abort), per-shard
// deadlines, and early return when the query context dies while a shard
// hangs. The vocabulary for what happens next — fail the query or merge
// the responsive shards — lives here too, shared by engine and rank so
// the policy types need no cross-package duplication.

// Policy decides how a sharded evaluation treats per-shard failures
// (worker panic, per-shard deadline, query cancellation mid-fan-out).
type Policy int

// Partial-result policies.
const (
	// PolicyStrict fails the whole query on the first shard failure —
	// the default: a BMO result must never silently drop shards.
	PolicyStrict Policy = iota
	// PolicyPartial merges the responsive shards and reports the missing
	// shard set (see Partial), trading completeness for availability.
	PolicyPartial
)

// String renders the policy name.
func (p Policy) String() string {
	if p == PolicyPartial {
		return "partial"
	}
	return "strict"
}

// Robust configures the fault tolerance of one sharded evaluation: the
// partial-result policy plus an optional per-shard deadline. The zero
// value is the strict, deadline-free default the context.Background()
// wrappers pass.
type Robust struct {
	// Policy selects strict (default) or partial-result semantics.
	Policy Policy
	// ShardTimeout, when positive, bounds each shard worker's run with
	// its own deadline (derived from the query context), so one slow
	// shard cannot stall the fan-out past it.
	ShardTimeout time.Duration
}

// Partial describes an incomplete sharded result under PolicyPartial:
// which shards are missing from the merge and why. The merged result
// restricted to the responsive shards is exact — partial maxima are
// precisely the maxima of the union of responsive shards' rows (the
// partition/merge identity applies to any subset of the partitions) —
// so a Partial never flags wrong rows, only absent ones.
type Partial struct {
	// Missing lists the failed shard indices, ascending.
	Missing []int
	// Errs holds the per-shard cause, aligned with Missing.
	Errs []error
}

// Error renders the missing shard set; Partial is reported alongside a
// result rather than instead of one, so it is not an error value itself,
// but callers logging it want the summary.
func (p *Partial) Error() string {
	if p == nil || len(p.Missing) == 0 {
		return "partial: no shards missing"
	}
	return fmt.Sprintf("partial result: %d shard(s) missing %v: %v", len(p.Missing), p.Missing, p.Errs[0])
}

// PanicError is a shard worker panic converted into a per-shard error
// by FanShardsCtx: the fan-out contains the crash — the query fails (or
// degrades, under PolicyPartial) instead of the process dying.
type PanicError struct {
	// Index is the failed work item (the shard, for shard fan-outs).
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("shard worker %d panicked: %v", e.Index, e.Value)
}

// ShardError wraps a per-shard failure with its shard index when a
// strict sharded evaluation fails the whole query.
type ShardError struct {
	// Shard is the failed shard index.
	Shard int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the cause to errors.Is/As (context.DeadlineExceeded,
// *PanicError, ...).
func (e *ShardError) Unwrap() error { return e.Err }

// Procs is the parallel width of the shard fan-out, the one way a
// statement runs on more than one core: the number of Ps the scheduler runs goroutines on (GOMAXPROCS), not the
// machine's CPU count — at one P a goroutine per shard cannot run beside
// another and only costs its stack.
func Procs() int { return runtime.GOMAXPROCS(0) }

// FanShardsCtx runs f(ctx, 0..n-1) concurrently — at most Procs at a
// time; below two workers the sweep degrades to a plain loop — and
// returns one error slot per item (nil = success):
//
//   - A panicking worker is recovered into a *PanicError for its slot;
//     the other workers and the process are untouched.
//   - itemTimeout > 0 derives a per-item deadline from ctx, so each
//     worker observes its own context.DeadlineExceeded.
//   - When ctx itself dies, unstarted items fail fast with ctx.Err(),
//     and the collector stops waiting: items still running are abandoned
//     with ctx.Err() in their slot. An abandoned worker's goroutine
//     exits as soon as its f observes the cancelled context (every
//     engine worker checks cooperatively); its late result is discarded,
//     so callers must only read per-item outputs whose error slot is
//     nil — that read is ordered after the worker's completion send.
//
// Work items must be independent: f runs on distinct goroutines with no
// ordering beyond the final collect.
func FanShardsCtx(ctx context.Context, n int, itemTimeout time.Duration, f func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	workers := Procs()
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = runShardItem(ctx, i, itemTimeout, f)
		}
		return errs
	}
	type itemResult struct {
		i   int
		err error
	}
	// Buffered to n: a worker's completion send can never block, so no
	// goroutine outlives its work item even when the collector returned
	// early (the goroutine-leak property the stream tests pin).
	results := make(chan itemResult, n)
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		go func(i int) {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				results <- itemResult{i, ctx.Err()}
				return
			}
			defer func() { <-sem }()
			results <- itemResult{i, runShardItem(ctx, i, itemTimeout, f)}
		}(i)
	}
	reported := make([]bool, n)
	for got := 0; got < n; {
		select {
		case r := <-results:
			errs[r.i], reported[r.i] = r.err, true
			got++
		case <-ctx.Done():
			// Drain results already queued (completed work should not be
			// reported as abandoned), then stop waiting for the rest.
			for {
				select {
				case r := <-results:
					errs[r.i], reported[r.i] = r.err, true
					got++
					continue
				default:
				}
				break
			}
			for i := range errs {
				if !reported[i] {
					errs[i] = ctx.Err()
				}
			}
			return errs
		}
	}
	return errs
}

// runShardItem runs one work item under its optional per-item deadline,
// converting a panic into a *PanicError.
func runShardItem(ctx context.Context, i int, itemTimeout time.Duration, f func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	if itemTimeout > 0 {
		ictx, cancel := context.WithTimeout(ctx, itemTimeout)
		defer cancel()
		ctx = ictx
	}
	return f(ctx, i)
}

// CollectPartial folds a fan-out's per-item error slots under a policy:
// PolicyStrict returns the first failure wrapped as a *ShardError (ok
// results discarded); PolicyPartial returns the missing shard set, or
// an error only when NO shard responded (an all-shards-missing partial
// result is indistinguishable from a failed query and reports as one).
// A nil, nil return means every shard succeeded.
func CollectPartial(policy Policy, errs []error) (*Partial, error) {
	var part *Partial
	for i, err := range errs {
		if err == nil {
			continue
		}
		if policy == PolicyStrict {
			return nil, &ShardError{Shard: i, Err: err}
		}
		if part == nil {
			part = &Partial{}
		}
		part.Missing = append(part.Missing, i)
		part.Errs = append(part.Errs, err)
	}
	if part != nil && len(part.Missing) == len(errs) {
		return nil, &ShardError{Shard: part.Missing[0], Err: part.Errs[0]}
	}
	return part, nil
}
