package rank

import (
	"container/heap"
	"context"

	"repro/internal/faultinject"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Ctx-aware ranked evaluation (§6.2 over a partitioned catalog; a flat
// table is its one shard, relation.OneShard). The k-best model
// distributes like BMO: the k best of a union are among the union of the
// per-shard k best. The heap scan polls its context at a coarse stride
// (the engine's cancellation discipline: one masked counter increment
// per row, one channel poll per stride), and the sharded fan-out runs on
// relation.FanShardsCtx with per-shard fault handling under a
// relation.Robust policy. The k-best model degrades under PolicyPartial
// exactly like BMO: the k best of the responsive shards' union are exact
// over what they cover — a missing shard can only mean absent answers,
// never wrong ones.

// cancelStride matches the engine's poll stride (power of two).
const cancelStride = 1024

// TopKOnCtx returns the k best of the candidate row positions of R
// (idx == nil means every row) under a context; returned Row values are
// positions in R. An index-chained ranked query — WHERE bitmap feeding
// the k-best model — therefore scores candidates straight off the base
// relation without materializing a subset. Scoring runs over the
// compiled combined-score vector when the term compiles (flat column
// reads, ordinal-coded discrete dimensions); tuple-at-a-time ScoreOf
// otherwise. The scan observes cancellation and deadlines cooperatively
// and returns the context's error instead of a result.
func TopKOnCtx(ctx context.Context, p pref.Scorer, r *relation.Relation, k int, idx []int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	done := ctx.Done()
	score := scoreFn(p, r, idx)
	n := r.Len()
	if idx != nil {
		n = len(idx)
	}
	h := &resultHeap{}
	heap.Init(h)
	for pos := 0; pos < n; pos++ {
		if done != nil && pos&(cancelStride-1) == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		i := pos
		if idx != nil {
			i = idx[pos]
		}
		s := score(pos, i)
		if h.Len() < k {
			heap.Push(h, Result{i, s})
			continue
		}
		if worse(h.items[0], Result{i, s}) {
			h.items[0] = Result{i, s}
			heap.Fix(h, 0)
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, nil
}

// TopKShardedCtx returns the k best rows over per-shard candidate
// subsets of a sharded table (sets == nil, or a nil element, means every
// row of that shard) under a context and a fault-tolerance policy;
// Result.Row values are global row ids. Every shard scans concurrently —
// scoring off its own cached compiled score vector — into a local
// k-heap; the merge pass heap-selects the global k from the ≤ k·shards
// local winners. Ties break by ascending global id, the sharded image of
// TopK's ascending-row rule. Shards scan under relation.FanShardsCtx —
// panic containment, per-shard deadlines under rb.ShardTimeout — and
// per-shard failures resolve under rb.Policy: a strict failure returns a
// *relation.ShardError, a partial result merges the responsive shards'
// local top-k and reports the missing shard set.
func TopKShardedCtx(ctx context.Context, p pref.Scorer, s *relation.Sharded, k int, sets [][]int, rb relation.Robust) ([]Result, *relation.Partial, error) {
	if k <= 0 {
		return nil, nil, ctx.Err()
	}
	locals := make([][]Result, s.NumShards())
	errs := relation.FanShardsCtx(ctx, s.NumShards(), rb.ShardTimeout, func(ictx context.Context, i int) error {
		var idx []int
		if sets != nil {
			idx = sets[i] // a nil element means every row of the shard
		}
		if idx != nil && len(idx) == 0 {
			return nil // nothing to scan: the shard is not visited, so it cannot fail
		}
		if err := faultinject.Invoke(ictx, s, i); err != nil {
			return err
		}
		local, err := TopKOnCtx(ictx, p, s.Shard(i), k, idx)
		if err != nil {
			return err
		}
		for j := range local {
			local[j].Row = relation.GlobalID(i, local[j].Row)
		}
		locals[i] = local
		return nil
	})
	part, err := relation.CollectPartial(rb.Policy, errs)
	if err != nil {
		return nil, nil, err
	}
	h := &resultHeap{}
	heap.Init(h)
	for i, local := range locals {
		if errs[i] != nil {
			// Abandoned workers may still write their slot; only slots with
			// a nil error are ordered after the worker's completion.
			continue
		}
		for _, res := range local {
			if h.Len() < k {
				heap.Push(h, res)
			} else if worse(h.items[0], res) {
				h.items[0] = res
				heap.Fix(h, 0)
			}
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, part, nil
}
