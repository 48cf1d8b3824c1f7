package engine

import (
	"context"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Ctx-aware progressive evaluation. A ctx stream polls its context at
// the cancellation stride on every pull path (progressive visits and
// batch fallbacks alike); when the context dies the stream closes
// itself — Next reports exhaustion and Err the cause — so an abandoned
// consumer never holds live evaluation state. Close is idempotent,
// releases the stream's buffers and cancels the stream's derived
// context, which also unblocks any shard workers a sharded batch
// fallback still has in flight: stopping to pull IS stopping the work.

// EvalStreamCtx starts progressive evaluation of the preference query
// under a context over the subset of R at the given candidate row
// positions (idx == nil means every row); emitted values are row indices
// in R. It is EvalStreamShardedCtx over R as its one shard under the
// strict policy: the flat progressive Stream, whose compiled forms bind to
// R's full column arrays through the compile cache — an index-chained
// streaming pipeline reuses the base relation's cached bound form across
// queries without materializing a single tuple — with the sharded batch
// as the keyless fallback under alg. The stream borrows idx (without
// modifying it); callers must not mutate the slice while the stream is
// live. idx must not contain duplicates.
func EvalStreamCtx(ctx context.Context, p pref.Preference, r *relation.Relation, alg Algorithm, idx []int) *ShardedStream {
	return EvalStreamShardedCtx(ctx, p, relation.OneShard(r), alg, ShardSets{idx}, Robust{})
}

// startStream binds a stream over the candidates idx of r (nil: every
// row) under its derived context, with batch as the keyless fallback.
func startStream(ctx context.Context, cc *canceller, cancel func(), p pref.Preference, r *relation.Relation, idx []int, batch func() ([]int, error)) *Stream {
	n := r.Len()
	if idx != nil {
		n = len(idx)
	}
	s := &Stream{n: n, cand: idx, cc: cc, cancel: cancel, batch: batch}
	if err := ctx.Err(); err != nil {
		// A context dead on arrival yields zero rows, not a stride's worth.
		s.fail(err)
		return s
	}
	if pref.Compilable(p) {
		if c := compileFor(p, r, EvalAuto); c != nil {
			s.bindCompiled(c)
			return s
		}
	}
	s.bindInterpreted(p, relationSource{r})
	return s
}

// streamContext derives a stream's own cancellable context, so Close
// can wind down in-flight work. An uncancellable parent needs none of
// it: the stream keeps the parent, a nil canceller (tick-free pulls) and
// no cancel function.
func streamContext(ctx context.Context) (context.Context, *canceller, context.CancelFunc) {
	if ctx.Done() == nil {
		return ctx, nil, nil
	}
	sctx, cancel := context.WithCancel(ctx)
	return sctx, newCanceller(sctx), cancel
}

// fail records the terminal error and closes the stream.
func (s *Stream) fail(err error) {
	s.err = err
	s.Close()
}

// Err returns the error that terminated the stream early — the
// context's error after cancellation or deadline — or nil after a
// clean drain (or while the stream is still live). A stream is never
// torn: rows emitted before the error are confirmed maxima, and Err
// non-nil means the enumeration stopped, not that any emitted row was
// wrong.
func (s *Stream) Err() error { return s.err }

// Close terminates the stream: subsequent Next calls report
// exhaustion, buffers are released, and the stream's derived context
// (ctx streams) is cancelled so any in-flight evaluation work winds
// down. Idempotent; also invoked internally when the stream's context
// dies.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cancel != nil {
		s.cancel()
	}
	if s.filter != nil {
		s.filter.release()
	}
	s.order, s.buffered, s.confirm, s.keys, s.filter, s.batch = nil, nil, nil, nil, nil, nil
}

// EvalStreamShardedCtx starts progressive evaluation over per-shard
// candidate subsets of a sharded table (sets == nil, or a nil element,
// means every row of that shard) under a context and a fault-tolerance
// policy; emitted values are global row ids. The stream borrows the
// sets without modifying them. Chain products stream through the k-way
// merge with a strided context poll per pull. Other shapes fall back to
// one batch sharded evaluation (bmoSharded, unkeyed, under alg and rb) —
// after it, Partial reports any shards missing from the enumeration
// under PolicyPartial, and a strict shard failure ends the stream with
// Err set. The progressive path itself always covers every shard: its
// per-shard state is built synchronously at start, so there is no shard
// to lose mid-stream — cancellation just stops the enumeration (Err
// reports the cause).
//
// A one-shard table streams as its shard: the flat progressive Stream
// over shard 0, whose positions are the global ids — so every keyed term
// (PRIOR TO, POS/EXPLICIT), not only chain products, confirms
// progressively — with the sharded batch above as its keyless fallback.
func EvalStreamShardedCtx(ctx context.Context, p pref.Preference, s *relation.Sharded, alg Algorithm, sets ShardSets, rb Robust) *ShardedStream {
	st := &ShardedStream{table: s, candidates: sets.Total(s)}
	ctx, st.cc, st.cancel = streamContext(ctx)
	st.batch = func() ([]int, error) {
		out, part, err := bmoSharded(ctx, p, s, alg, sets, nil, false, nil, rb)
		if err != nil {
			return nil, err
		}
		st.partial = part
		return out.GlobalIDs(s), nil
	}
	if s.NumShards() == 1 {
		var idx []int
		if sets != nil {
			idx = sets[0]
		}
		st.flat = startStream(ctx, st.cc, st.cancel, p, s.Shard(0), idx, st.batch)
		return st
	}
	if err := ctx.Err(); err != nil {
		// A context dead on arrival yields zero rows, not a stride's worth.
		st.fail(err)
		return st
	}
	st.bindChain(p, sets)
	return st
}

// fail records the terminal error and closes the stream.
func (st *ShardedStream) fail(err error) {
	st.err = err
	st.Close()
}

// Err returns the error that terminated the stream early, or nil; see
// Stream.Err.
func (st *ShardedStream) Err() error {
	if st.flat != nil {
		return st.flat.Err()
	}
	return st.err
}

// Partial reports the shards missing from the enumeration after a
// batch-fallback evaluation under PolicyPartial, nil for a complete
// result. Populated once the batch has run (first Next).
func (st *ShardedStream) Partial() *Partial { return st.partial }

// Close terminates the stream; see Stream.Close. Cancelling the
// derived context makes any shard workers of an in-flight batch
// fallback exit, so abandoning a sharded stream leaks no goroutines.
func (st *ShardedStream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	if st.flat != nil {
		st.flat.Close()
	}
	if st.cancel != nil {
		st.cancel()
	}
	st.orders, st.heads, st.confirmed, st.buffered, st.member, st.vecs, st.batch = nil, nil, nil, nil, nil, nil, nil
}
