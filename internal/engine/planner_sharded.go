package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/pref"
	"repro/internal/relation"
)

// ShardPlan is the explainable physical plan of one BMO query over a
// sharded table: the representative per-shard plan, the shard fan-out,
// the cross-shard merge mode, and the cost estimate
//
//	waves(shards/fanout) × per-shard cost + merge(shards × per-shard
//	result) + dispatch overhead
//
// A sharded table always evaluates shard-at-a-time — fault isolation,
// result caching and the cached per-shard bound forms all live along
// shard boundaries — so the plan describes that one route.
type ShardPlan struct {
	Shards int
	Input  int // total candidate count across shards
	Fanout int // concurrent shard evaluations
	Merge  string
	// MergeDominance is the comparator of a compiled merge: the sort-filter
	// pass compiledMergeSharded runs over the gathered local maxima.
	MergeDominance Dominance
	// PerShard is the plan of the representative (largest-candidate-set)
	// shard; every shard follows the same decision procedure at its own
	// cardinality.
	PerShard    *Plan
	ShardedCost float64
	Reasons     []string
}

// PlanSharded plans σ[P](S) over every row of a sharded table for this
// machine.
func PlanSharded(p pref.Preference, s *relation.Sharded, env Env) *ShardPlan {
	return PlanShardedOn(p, s, nil, env)
}

// PlanShardedOn plans evaluation over per-shard candidate subsets (nil
// means every row); the psql EXPLAIN front-end inlines its rendering.
func PlanShardedOn(p pref.Preference, s *relation.Sharded, sets ShardSets, env Env) *ShardPlan {
	if sets == nil {
		sets = AllShardSets(s)
	}
	n := sets.Total(s)
	rep, repN := 0, -1
	for i := 0; i < s.NumShards(); i++ {
		ni := len(sets.Resolve(s, i))
		if ni > repN {
			rep, repN = i, ni
		}
	}
	fanout := env.numCPU()
	if fanout > s.NumShards() {
		fanout = s.NumShards()
	}
	if fanout < 1 {
		fanout = 1
	}
	sp := &ShardPlan{
		Shards: s.NumShards(),
		Input:  n,
		Fanout: fanout,
		Merge:  ShardMergeMode(p),
	}
	if sp.Merge == "compiled" {
		sp.MergeDominance = dominanceOf(p, SFS)
	}
	sp.PerShard = planCore(p, s.Shard(rep), repN, env, BindScopeOf(p, s.Shard(rep), repN))
	perShardCost := chosenCost(sp.PerShard)
	waves := (s.NumShards() + fanout - 1) / fanout
	merged := s.NumShards() * sp.PerShard.EstResult
	// Goroutine dispatch is only paid when the fan-out actually spawns
	// workers; a single-CPU sequential sweep costs one function call per
	// shard.
	dispatch := 50 * float64(s.NumShards())
	if fanout >= 2 {
		dispatch = 1500 * float64(fanout)
	}
	sp.ShardedCost = float64(waves)*perShardCost + sp.mergeCost(merged) + dispatch

	sp.Reasons = append(sp.Reasons,
		fmt.Sprintf("%d shards × ≈%d candidates, fan-out %d, merge: %s over ≈%d local maxima",
			s.NumShards(), repN, fanout, sp.Merge, merged),
		fmt.Sprintf("estimated cost ≈%.3g (%d wave(s) × per-shard + merge + dispatch)", sp.ShardedCost, waves))
	return sp
}

// chosenCost returns the cost estimate of the plan's chosen candidate;
// small inputs skip candidate costing, so a linear stand-in keeps the
// comparison meaningful at that scale.
func chosenCost(pl *Plan) float64 {
	for _, c := range pl.Candidates {
		if c.Algorithm == pl.Algorithm && c.Workers == pl.Workers {
			return c.Cost
		}
	}
	return float64(pl.Input)
}

// mergeCost estimates the cross-shard merge over m local maxima: one
// gathered bind plus a compiled sort-filter pass for compilable terms
// (about half of the already-reduced input survives, so the filter pass
// compares each row against a quarter of it on average), a quadratic
// interpreted BNL window pass otherwise.
func (sp *ShardPlan) mergeCost(m int) float64 {
	fm := float64(m)
	if m < 2 {
		return fm
	}
	if sp.Merge != "compiled" {
		return fm * fm
	}
	return fm*math.Log2(fm)*keyCmpCost + fm*fm/8*compiledPairCost(sp.MergeDominance, false)
}

// mergeLabel renders the merge mode with a compiled merge's comparator.
func (sp *ShardPlan) mergeLabel() string {
	if sp.Merge != "compiled" {
		return sp.Merge
	}
	return sp.Merge + " dominance=" + sp.MergeDominance.String()
}

// Explain renders the sharded plan: the shard fan-out line, the
// representative per-shard plan indented underneath, and the reasoning.
func (sp *ShardPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sharded plan: shards=%d n=%d fanout=%d merge=%s\n",
		sp.Shards, sp.Input, sp.Fanout, sp.mergeLabel())
	for _, line := range strings.Split(strings.TrimRight(sp.PerShard.Explain(), "\n"), "\n") {
		fmt.Fprintf(&b, "  per-shard %s\n", line)
	}
	for _, r := range sp.Reasons {
		fmt.Fprintf(&b, "because: %s\n", r)
	}
	return b.String()
}
