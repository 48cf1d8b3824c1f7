package rank

import (
	"container/heap"
	"context"
	"math"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Sharded ranked evaluation (§6.2 over a partitioned catalog). The k-best
// model distributes like BMO: the k best of a union are among the union
// of the per-shard k best, so every shard computes its local top-k off
// its own cached score vectors and a final heap merge keeps the global k.
// The threshold algorithm distributes through its sorted lists — each
// shard's per-feature list is a cached permutation, and the scan consumes
// the shard lists round-robin with the stopping threshold taken over the
// best unseen head of any shard.

// TopKSharded returns the k best rows of a sharded table under the
// Scorer p; Result.Row values are stable global row ids
// (relation.GlobalID).
func TopKSharded(p pref.Scorer, s *relation.Sharded, k int) []Result {
	return TopKShardedOn(p, s, k, nil)
}

// TopKShardedOn is TopKSharded over per-shard candidate subsets:
// TopKShardedCtx under an uncancellable context and the strict policy.
// The only error that combination can produce is a contained
// shard-worker failure (a panic, or an injected fault); it re-panics on
// the calling goroutine.
func TopKShardedOn(p pref.Scorer, s *relation.Sharded, k int, sets [][]int) []Result {
	out, _, err := TopKShardedCtx(context.Background(), p, s, k, sets, relation.Robust{})
	if err != nil {
		panic(err)
	}
	return out
}

// ThresholdTopKSharded computes the k best rows of a sharded table under
// rank(F) with the threshold algorithm. Per-feature sorted access runs
// over every shard's cached score vectors and sorted-access permutations
// (built concurrently on first use, cache-served afterwards), the shard
// lists are consumed round-robin — one sorted access per (feature,
// shard) per round — and the stopping threshold for each feature is the
// best unseen head across all shards, so the scan stops exactly when no
// unseen row of any shard can reach the k-th best combined score.
// Result.Row values are global row ids; Stats aggregates accesses across
// shards.
func ThresholdTopKSharded(p *pref.RankPref, s *relation.Sharded, k int) ([]Result, Stats) {
	var stats Stats
	if k <= 0 || s.Len() == 0 {
		return nil, stats
	}
	parts := p.Parts()
	m := len(parts)
	nShards := s.NumShards()
	scores := make([][][]float64, nShards) // [shard][feature][local]
	lists := make([][][]int, nShards)      // [shard][feature] sorted perm
	errs := relation.FanShardsCtx(context.Background(), nShards, 0, func(_ context.Context, i int) error {
		sh := s.Shard(i)
		n := sh.Len()
		scores[i] = make([][]float64, m)
		lists[i] = make([][]int, m)
		for f := 0; f < m; f++ {
			scores[i][f] = cachedScoreVec(parts[f], sh)
			if scores[i][f] == nil {
				fs := make([]float64, n)
				for j := 0; j < n; j++ {
					fs[j] = parts[f].ScoreOf(sh.Tuple(j))
				}
				scores[i][f] = fs
			}
			lists[i][f] = cachedSortedPerm(parts[f], sh, scores[i][f])
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			panic(err) // a contained warm-up worker panic; nothing else can fail here
		}
	}
	depth := make([]int, nShards) // per-shard consumption depth
	seen := make(map[int]struct{}, 2*k)
	h := &resultHeap{}
	heap.Init(h)
	scratch := make([]float64, m)
	for {
		advanced := false
		// One round: for every feature, one sorted access per shard, in
		// shard order (the round-robin).
		for f := 0; f < m; f++ {
			for i := 0; i < nShards; i++ {
				if depth[i] >= s.Shard(i).Len() {
					continue
				}
				local := lists[i][f][depth[i]]
				stats.SortedAccesses++
				gid := relation.GlobalID(i, local)
				if _, dup := seen[gid]; dup {
					continue
				}
				seen[gid] = struct{}{}
				for g := 0; g < m; g++ {
					scratch[g] = scores[i][g][local]
					if g != f {
						stats.RandomAccesses++
					}
				}
				stats.Scanned++
				res := Result{gid, p.Combine(scratch)}
				if h.Len() < k {
					heap.Push(h, res)
				} else if worse(h.items[0], res) {
					h.items[0] = res
					heap.Fix(h, 0)
				}
			}
		}
		for i := 0; i < nShards; i++ {
			if depth[i] < s.Shard(i).Len() {
				depth[i]++
				advanced = true
			}
		}
		if !advanced {
			break
		}
		// Threshold: the best combined score any unseen row of any shard
		// could reach — per feature, the maximum unseen head.
		for f := 0; f < m; f++ {
			best := math.Inf(-1)
			for i := 0; i < nShards; i++ {
				if depth[i] < s.Shard(i).Len() {
					if v := scores[i][f][lists[i][f][depth[i]]]; v > best {
						best = v
					}
				}
			}
			scratch[f] = best
		}
		if h.Len() == k && !worse(h.items[0], Result{Row: -1, Score: p.Combine(scratch)}) {
			break
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	return out, stats
}
