package engine

import (
	"fmt"
	"strings"

	"repro/internal/pref"
	"repro/internal/relation"
)

// ShardPlan is the explainable physical plan of one BMO query over a
// sharded table: the representative per-shard plan, the shard fan-out,
// the cross-shard merge's comparator, and the cost estimate
//
//	waves(shards/fanout) × per-shard cost + merge(Σ|W|·|Lᵢ| cross-shard
//	pairs over the per-shard results) + dispatch overhead
//
// A sharded table always evaluates shard-at-a-time — fault isolation,
// result caching and the cached per-shard bound forms all live along
// shard boundaries — so the plan describes that one route.
type ShardPlan struct {
	Shards int
	Input  int // total candidate count across shards
	Fanout int // concurrent shard evaluations
	// Merge is the comparator the cross-shard fold runs on (ShardMergeMode).
	Merge string
	// PerShard is the plan of the representative (largest-candidate-set)
	// shard; every shard follows the same decision procedure at its own
	// cardinality.
	PerShard    *Plan
	ShardedCost float64

	// What Explain words as the "because:" lines: the representative
	// shard's candidates, the local maxima the merge folds, its
	// cross-shard pairs and the waves of the fan-out.
	repN, merged, pairs, waves int
}

// PlanShardedOn plans σ[P](S) over per-shard candidate subsets (nil
// means every row) for this machine; the psql EXPLAIN front-end inlines
// its rendering.
func PlanShardedOn(p pref.Preference, s *relation.Sharded, sets ShardSets, env Env) *ShardPlan {
	n := sets.Total(s)
	rep, repN := 0, -1
	for i := 0; i < s.NumShards(); i++ {
		ni := sets.count(s, i)
		if ni > repN {
			rep, repN = i, ni
		}
	}
	fanout := max(1, min(relation.Procs(), s.NumShards()))
	sp := &ShardPlan{
		Shards: s.NumShards(),
		Input:  n,
		Fanout: fanout,
		Merge:  ShardMergeMode(p),
	}
	sp.PerShard = planCore(p, s.Shard(rep), repN, env, BindScopeOf(s.Shard(rep), repN))
	perShardCost := chosenCost(sp.PerShard)
	waves := (s.NumShards() + fanout - 1) / fanout
	merged := s.NumShards() * sp.PerShard.EstResult
	pairs := foldPairs(s.NumShards(), sp.PerShard.EstResult)
	// Goroutine dispatch is only paid when the fan-out actually spawns
	// workers; a single-CPU sequential sweep costs one function call per
	// shard.
	dispatch := 50 * float64(s.NumShards())
	if fanout >= 2 {
		dispatch = 1500 * float64(fanout)
	}
	sp.ShardedCost = float64(waves)*perShardCost + sp.mergeCost(merged, pairs) + dispatch
	sp.repN, sp.merged, sp.pairs, sp.waves = repN, merged, pairs, waves
	return sp
}

// chosenCost returns the cost estimate of the plan's chosen candidate;
// small inputs skip candidate costing, so a linear stand-in keeps the
// comparison meaningful at that scale.
func chosenCost(pl *Plan) float64 {
	for _, c := range pl.Candidates {
		if c.Algorithm == pl.Algorithm {
			return c.Cost
		}
	}
	return float64(pl.Input)
}

// foldPairs bounds the tests of the cross-shard fold over k parts of e
// local maxima each: part i meets the at most i·e members standing when it
// arrives — Σ|W|·|Lᵢ| = e²·k(k−1)/2 when every local maximum survives,
// which after a shard-local pass most do. No intra-part pair, no sort.
func foldPairs(k, e int) int {
	return e * e * k * (k - 1) / 2
}

// mergeCost estimates the cross-shard fold: one carried record (or tuple
// view) per local maximum, then the cross-shard pairs on the fold's
// comparator, each settled in both directions — a lane in each sweep's
// blocks, one three-way compare on flat records, two Less through the
// predicate tree or the interface.
func (sp *ShardPlan) mergeCost(m, pairs int) float64 {
	pair := 2.0
	switch sp.Merge {
	case DominanceBlocksAVX2.String():
		pair = 2 * compiledPairCost(DominanceBlocksAVX2, false)
	case DominanceFlat.String():
		pair = compiledPairCost(DominanceFlat, true)
	case DominanceTree.String():
		pair = compiledPairCost(DominanceTree, true)
	}
	return float64(m) + float64(pairs)*pair
}

// Explain renders the sharded plan: the shard fan-out line, the
// representative per-shard plan indented underneath, and the reasoning.
func (sp *ShardPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded plan: shards=%d n=%d fanout=%d merge=fold dominance=%s\n",
		sp.Shards, sp.Input, sp.Fanout, sp.Merge)
	for _, line := range strings.Split(strings.TrimRight(sp.PerShard.Explain(), "\n"), "\n") {
		fmt.Fprintf(&b, "  per-shard %s\n", line)
	}
	fmt.Fprintf(&b, "because: %d shards × ≈%d candidates, fan-out %d, merge: %s fold over ≈%d local maxima, ≈%d cross-shard pairs\n",
		sp.Shards, sp.repN, sp.Fanout, sp.Merge, sp.merged, sp.pairs)
	fmt.Fprintf(&b, "because: estimated cost ≈%.3g (%d wave(s) × per-shard + merge + dispatch)\n", sp.ShardedCost, sp.waves)
	return b.String()
}
