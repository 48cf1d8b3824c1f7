package engine

import "context"

// Cooperative cancellation. The evaluation algorithms are long tight
// loops over flat columns; returning an error from every inner loop
// would put a branch-and-propagate on the hottest path in the engine.
// Instead a *canceller threads through the algorithm layer: each long
// loop calls tick() once per candidate, tick() polls the context only
// every cancelStride calls (a nil receiver check and a masked counter
// increment otherwise — benchmark-neutral, see
// BenchmarkCancellationOverhead), and a fired context unwinds the whole
// evaluation with one cancelPanic that the ctx entry point recovers
// into a plain error. The panic protocol is strictly internal: it
// never crosses a package boundary (runCancellable is the only
// recovery point and every ctx entry point goes through it), and a shard
// the fan-out evaluates on its own goroutine runs its own runCancellable
// there, so the unwind never leaves the goroutine that started it.
//
// An uncancellable context (the context.Background() wrappers) lowers
// to a nil canceller, so those calls run the same loops with one
// predictable branch per candidate.

// cancelStride is the number of tick() calls between context polls —
// coarse enough that the poll (one channel select) vanishes against
// the comparisons a stride's worth of candidates costs, fine enough
// that cancellation latency stays in the tens of microseconds.
const cancelStride = 1024

// cancelPanic unwinds a cancelled evaluation to runCancellable.
type cancelPanic struct{ err error }

// canceller is the per-evaluation cancellation state. A nil *canceller
// is the "not cancellable" instance an uncancellable context gets; all
// methods are nil-safe. A canceller is single-goroutine state (the
// counter is unsynchronized).
type canceller struct {
	done <-chan struct{}
	ctx  context.Context
	n    uint
}

// newCanceller returns the cancellation state for ctx, or nil when the
// context can never be cancelled (context.Background and friends) so
// the evaluation runs tick-free.
func newCanceller(ctx context.Context) *canceller {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return &canceller{done: done, ctx: ctx}
}

// tick is the per-candidate cancellation check: every cancelStride-th
// call polls the context and unwinds with cancelPanic when it has
// fired.
func (c *canceller) tick() {
	if c == nil {
		return
	}
	if c.n++; c.n&(cancelStride-1) != 0 {
		return
	}
	select {
	case <-c.done:
		panic(cancelPanic{c.ctx.Err()})
	default:
	}
}

// check polls the context immediately (no stride): phase boundaries —
// before a sort, between pipeline steps — use it.
func (c *canceller) check() {
	if c == nil {
		return
	}
	select {
	case <-c.done:
		panic(cancelPanic{c.ctx.Err()})
	default:
	}
}

// tickErr is the strided poll in error-returning form: the streams'
// pull loops use it where unwinding with a panic would tear through
// consumer state.
func (c *canceller) tickErr() error {
	if c == nil {
		return nil
	}
	if c.n++; c.n&(cancelStride-1) != 0 {
		return nil
	}
	return c.err()
}

// err returns the context's error without panicking; streams use it
// for their non-unwinding per-pull checks.
func (c *canceller) err() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// runCancellable runs one evaluation under a context: f receives the
// canceller to thread into the algorithm layer, and a cancelPanic
// unwinding out of f converts back into the context's error (with a zero
// result). Any other panic propagates unchanged. It is the single
// recovery point of the cancellation protocol.
func runCancellable[T any](ctx context.Context, f func(cc *canceller) T) (out T, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	defer func() {
		if v := recover(); v != nil {
			cp, ok := v.(cancelPanic)
			if !ok {
				panic(v)
			}
			var zero T
			out, err = zero, cp.err
		}
	}()
	return f(newCanceller(ctx)), nil
}
