package engine

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// The sharded BMO soft step. Every sharded evaluation — the ctx entry
// points below, the flat keyed entry point (resultserve.go) over a
// relation as its one shard, the stream batch fallbacks, psql's
// pipeline — runs bmoSharded:
// shards evaluate under relation.FanShardsCtx (panic containment,
// per-shard deadlines, early abandon on a dead query context) and
// per-shard failures resolve under a relation.Robust policy: strict
// (fail the query, the default) or partial (merge the responsive shards
// and report the missing set). The partial merge is exact over what it
// covers: the partition/merge identity
// max(P over A ∪ B) = max(P over max(P,A) ∪ max(P,B)) applies to any
// subset of the partitions, so the partial maxima are precisely the
// maxima of the union of responsive shards' rows — absent rows, never
// wrong ones. An uncancellable context costs nothing extra: its
// canceller is nil (tick-free loops) and the fan-out degrades to a plain
// loop below two workers.

// Policy re-exports the partial-result policy at the engine layer.
type Policy = relation.Policy

// Partial-result policies (see relation.Policy).
const (
	PolicyStrict  = relation.PolicyStrict
	PolicyPartial = relation.PolicyPartial
)

// Robust re-exports the per-evaluation fault-tolerance configuration.
type Robust = relation.Robust

// Partial re-exports the missing-shard report of a partial result.
type Partial = relation.Partial

// BMOShardedOnCtxKeyed is BMOShardedOnFilteredCtxKeyed through the result
// cache without an acceptance filter: the local pre-merge maxima of each
// shard whose candidate slot is nil — every row of the shard — are served
// from (and stored to) the cache, keyed by the shard's live identity and
// generation version; the cheap cross-shard merge always recomputes. A
// shard whose slot is a non-nil candidate set evaluates without the
// cache, whatever where says: where is ignored, and a WHERE-scoped step
// (whose every slot is its selected rows) never reads or stores an entry.
func BMOShardedOnCtxKeyed(ctx context.Context, p pref.Preference, s *relation.Sharded, alg Algorithm, sets ShardSets, where filter.Pred, rb Robust) (ShardSets, *Partial, error) {
	return bmoSharded(ctx, p, s, alg, sets, true, nil, rb)
}

// BMOShardedOnFilteredCtxKeyed is the general form of the sharded soft
// step, the one psql's pipeline calls: it evaluates the preference query
// over per-shard candidate subsets (sets == nil, or a nil element, means
// every row) under a context and a fault-tolerance policy, returning the
// qualifying positions per shard in ascending order. On success the
// Partial is nil (complete result) or lists the shards missing from the
// merge (PolicyPartial); on error the ShardSets are nil — a cancelled or
// strictly-failed query never returns a torn result. keyed selects
// result-cache serving under the BMOShardedOnCtxKeyed contract (false
// never touches the cache, so benchmarks and agreement baselines measure
// real work), and a non-nil keep fuses a
// post-BMO acceptance filter into the fan-out. The filter runs right
// after each shard's local BMO pass — while the shard's columns are
// cache-hot and in parallel across shards — on every call (it is query
// state, not a function of the generation), but its SEMANTICS stay
// filter-after-merge: a maximum the filter rejects still enters the
// cross-shard merge (it dominates other shards' candidates exactly like
// any maximum, per the §6.1 pipeline where BUT ONLY prunes the BMO
// result rather than the candidate set); only the merge survivors are
// intersected with the accepted subsets. A shard missing under
// PolicyPartial contributes neither maxima nor acceptances.
func BMOShardedOnFilteredCtxKeyed(ctx context.Context, p pref.Preference, s *relation.Sharded, alg Algorithm, sets ShardSets, keyed bool, keep ShardFilter, rb Robust) (ShardSets, *Partial, error) {
	return bmoSharded(ctx, p, s, alg, sets, keyed, keep, rb)
}

// bmoSharded is the one sharded BMO evaluator: fan out, evaluate (or
// cache-serve, when keyed and the shard's slot is nil) each shard's local
// maxima, optionally run the acceptance filter, collect under the policy,
// merge cross-shard, and intersect the survivors with the accepted
// subsets.
func bmoSharded(ctx context.Context, p pref.Preference, s *relation.Sharded, alg Algorithm, sets ShardSets, keyed bool, keep ShardFilter, rb Robust) (ShardSets, *Partial, error) {
	if sets == nil {
		sets = AllShardSets(s)
	}
	// Rendered once, before the fan-out: every shard's result key reuses
	// it.
	var keys resultTerm
	if keyed {
		keys = termOf(p)
	}
	locals := make(ShardSets, s.NumShards())
	var accepted ShardSets
	if keep != nil {
		accepted = make(ShardSets, s.NumShards())
	}
	// A term of the flat fragment carries each shard's local maxima into
	// the fold as records, copied out of the form that evaluated them
	// before its slab goes back: the fold binds nothing again.
	var carried []*pref.FlatShape
	if s.NumShards() > 1 && pref.FlatShaped(p) {
		carried = make([]*pref.FlatShape, s.NumShards())
	}
	errs := relation.FanShardsCtx(ctx, s.NumShards(), rb.ShardTimeout, func(ictx context.Context, i int) error {
		if sets.count(s, i) == 0 {
			return nil // nothing to evaluate: the shard is not visited, so it cannot fail
		}
		if err := faultinject.Invoke(ictx, s, i); err != nil {
			return err
		}
		shard, cand := s.Shard(i), sets[i]
		canServe := keyed && cand == nil
		var (
			key shardResultKey
			out []int
			hit bool
		)
		if canServe {
			key = captureShardKey(keys, shard)
			out, hit = key.serve(ictx)
		}
		if !hit {
			// "Every row" resolves to positions only here: a result-cache
			// hit on a whole shard allocates nothing of the shard's size.
			if cand == nil {
				cand = allIndices(shard.Len())
			}
			var done func(evaluated)
			if canServe || carried != nil {
				done = func(ev evaluated) {
					if canServe {
						key.store(p, shard, ev)
					}
					if carried != nil {
						carried[i] = ev.records()
					}
				}
			}
			var err error
			out, err = runCancellable(ictx, func(cc *canceller) []int {
				return evalOn(p, shard, alg, EvalAuto, cand, cc, done)
			})
			if err != nil {
				return err
			}
		}
		locals[i] = out
		if keep != nil {
			accepted[i] = keep(i, out)
		}
		return nil
	})
	part, err := relation.CollectPartial(rb.Policy, errs)
	if err != nil {
		return nil, nil, err
	}
	// With shards missing, copy the responsive ones into a fresh set before
	// merging: an abandoned worker may still be running (it exits when its
	// canceller observes the dead context) and would race with any touch
	// of its locals slot. Slots with a nil error slot are ordered after
	// their worker's completion send; only those are read.
	responsive, records := locals, carried
	if part != nil {
		responsive = make(ShardSets, len(locals))
		records = nil
		if carried != nil {
			records = make([]*pref.FlatShape, len(carried))
		}
		for i := range locals {
			if errs[i] == nil {
				responsive[i] = locals[i]
				if records != nil {
					records[i] = carried[i]
				}
			}
		}
	}
	defer func() {
		for _, rec := range records {
			if rec != nil {
				releaseRecords(rec)
			}
		}
	}()
	// The merge runs over already-reduced local maxima — cheap relative
	// to the per-shard scans — and deliberately without the query
	// context: under PolicyPartial the context may already be dead (that
	// is *why* shards are missing), yet the responsive shards' merge
	// must still complete to produce the partial result.
	out, _ := mergeShardMaxima(p, s, responsive, records)
	if keep != nil {
		for i := range out {
			if errs[i] == nil {
				out[i] = intersectSorted(out[i], accepted[i])
			}
		}
	}
	return ensureNonNil(out), part, nil
}
