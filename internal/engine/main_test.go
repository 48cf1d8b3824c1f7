package engine

import (
	"context"
	"os"
	"testing"

	"repro/internal/pref"
	"repro/internal/relation"
)

// TestMain runs every suite of the package with the use-after-release
// guard on: a gathered bind's slab is scribbled over the moment it is
// released (NaN floats, flipped masks, -1 slots), so whatever reads a
// bound form, a column image or a slot list past its release — a
// result-cache entry built too late, a merge touching a shard's form, an
// abandoned worker's memory handed to the next statement — shows up in the
// agreement batteries as a wrong answer or an index panic.
func TestMain(m *testing.M) {
	relation.PoisonReleasedSlabs(true)
	os.Exit(m.Run())
}

// shardedBMO is the unkeyed sharded soft step under an uncancellable
// context and the strict policy; the only error that can produce — a
// contained shard-worker failure — re-panics.
func shardedBMO(p pref.Preference, s *relation.Sharded, alg Algorithm, sets ShardSets) ShardSets {
	out, _, err := BMOShardedOnFilteredCtxKeyed(context.Background(), p, s, alg, sets, false, nil, Robust{})
	if err != nil {
		panic(err)
	}
	return out
}

// oneShardBMO is the unkeyed soft step over the candidates idx of r (nil:
// every row) as its one shard, under ctx and the strict policy.
func oneShardBMO(ctx context.Context, p pref.Preference, r *relation.Relation, alg Algorithm, idx []int) ([]int, error) {
	out, _, err := BMOShardedOnFilteredCtxKeyed(ctx, p, relation.OneShard(r), alg, ShardSets{idx}, false, nil, Robust{})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// oneShardGroupBy is GroupByShardedOn over the candidates idx of r (nil:
// every row) as its one shard.
func oneShardGroupBy(p pref.Preference, attrs []string, r *relation.Relation, alg Algorithm, idx []int) []int {
	out, err := GroupByShardedOn(context.Background(), p, attrs, relation.OneShard(r), alg, ShardSets{idx})
	if err != nil {
		panic(err)
	}
	return out[0]
}

// compileFor binds p to r's whole column arrays, or returns nil when the
// mode forbids it or the term does not bind.
func compileFor(p pref.Preference, r *relation.Relation, mode EvalMode) *pref.Compiled {
	if mode == EvalInterpreted {
		return nil
	}
	c, _ := pref.Compile(p, r)
	return c
}

// runPlan executes a plan — its algorithm, which a test may have forced —
// over every row of r.
func runPlan(pl *Plan, p pref.Preference, r *relation.Relation) []int {
	return runPass(pl.Algorithm, p, r, compileFor(p, r, EvalAuto), allIndices(r.Len()), nil)
}
