// Package repro is a from-scratch Go reproduction of Werner Kießling,
// "Foundations of Preferences in Database Systems" (VLDB 2002): the
// preference model as strict partial orders, the preference algebra, the
// BMO query model with its decomposition theorems, Preference SQL and
// Preference XPath, plus the evaluation substrates needed to regenerate
// every worked example and quantitative claim of the paper.
//
// The whole query path runs over compiled columnar forms whenever the
// terms are built from the library's constructors: pref.Compile binds a
// preference to column vectors once (flat score vectors, ordinal codes, a
// specialized less(i, j) predicate), filter.Compile does the same for
// hard WHERE selections (vector scans, per-distinct-value dictionary
// evaluation, a Keep(i) bitmap), quality.LevelVec/DistanceVec materialize
// the BUT ONLY quality measures as threshold-scannable vectors. These
// bound forms are per-statement state, dropped when the statement ends;
// what repeated statements reuse lives in the memo of the relation's
// generation under a canonical term key — the BMO maxima of whole shards
// (the result cache; a WHERE-scoped statement stores nothing), rank score
// vectors and the planner's statistics (relation.Relation.Memo, Stats) —
// and retires with the generation: a dropped catalog relation frees its
// entries with its rows. Grouping partitions
// by cached equality codes, ranked TOP-k queries score row positions
// through the compiled vectors (internal/rank; a weighted-sum rank(F),
// Preference SQL's RANK, keys its score vectors by its exact weights and
// parts), and streaming delivery runs index-chained over the WHERE
// index list (engine.EvalStreamCtx). The interpreted tuple-at-a-time
// interface path remains as the transparent fallback for foreign
// Preference/Pred implementations (and as the measured baseline, see
// engine.EvalMode).
// Plan.Explain and Preference SQL EXPLAIN report which path a query
// takes, which rows it binds and whether the result cache hits.
//
// The catalog scales out horizontally: relation.Sharded partitions a
// table into N shards (hash or range over an attribute, stable global
// row ids), engine.BMOShardedOnFilteredCtxKeyed / GroupByShardedOn /
// EvalStreamShardedCtx and rank.TopKShardedCtx evaluate shard-local off
// a bind over each shard's columns — or, for a selective statement, over
// just the shard's gathered candidates — and merge candidate maxima
// cross-shard (the compiled evaluator over the gathered local maxima,
// interpreted BNL for terms outside the compilable fragment) along one
// fault-contained fan-out whatever the caller's context,
// engine.PlanShardedOn describes that route, and psql routes every
// catalog table through all of it — a flat one as its one shard
// (relation.OneShard), as the engine's flat keyed, streaming and grouping
// entry points do too — with EXPLAIN reporting shards=N and the merge
// mode per phase.
//
// Start with ARCHITECTURE.md (the end-to-end dataflow tour with file
// pointers), internal/core (the façade API) and README.md (package tour,
// how to run the examples, benchmarks and CI). bench_test.go in this
// directory holds one benchmark per reproduced experiment plus the
// evaluation-layer benches (planner, streaming,
// compiled vs interpreted, cold and selective binds, sharded
// evaluation at n=100k over 1/2/4/8 shards); BENCH_BASELINE.json is the
// one committed micro baseline.
package repro
