// Package core is the library's façade: one import giving downstream users
// the complete Kießling preference model (internal/pref), the BMO query
// engine (internal/engine), quality functions (internal/quality) and the
// ranked query model (internal/rank) under a single, documented API.
//
// A minimal session:
//
//	wish := core.Prioritized(
//	    core.NEG("color", "gray"),
//	    core.Pareto(core.LOWEST("price"), core.LOWEST("mileage")),
//	)
//	best := core.BMO(wish, cars)      // σ[P](R): best matches only
//
// The sub-packages remain importable directly for advanced use (algebraic
// rewriting, decomposition evaluation, Preference SQL, Preference XPath).
package core

import (
	"repro/internal/engine"
	"repro/internal/pref"
	"repro/internal/quality"
	"repro/internal/rank"
	"repro/internal/relation"
)

// Core model types, re-exported.
type (
	// Preference is a strict partial order P = (A, <P); see Definition 1.
	Preference = pref.Preference
	// Scorer is a preference whose order a real-valued function induces.
	Scorer = pref.Scorer
	// Tuple supplies attribute values to preference evaluation.
	Tuple = pref.Tuple
	// MapTuple is an ad-hoc Tuple backed by a map.
	MapTuple = pref.MapTuple
	// Value is a domain value (string, numeric, bool or time.Time).
	Value = pref.Value
	// Edge is one explicit better-than pair (worse, better).
	Edge = pref.Edge
	// Graph is a better-than graph (Hasse diagram) over a finite tuple set.
	Graph = pref.Graph
	// Relation is an in-memory database set.
	Relation = relation.Relation
	// Algorithm selects the physical BMO evaluation strategy.
	Algorithm = engine.Algorithm
)

// Base preference constructors (Definitions 6 and 7).
var (
	// POS prefers values from a favorite set.
	POS = pref.POS
	// NEG avoids values from a dislike set.
	NEG = pref.NEG
	// POSNEG layers favorites over dislikes; errors on overlapping sets.
	POSNEG = pref.POSNEG
	// POSPOS layers favorites over second-best alternatives.
	POSPOS = pref.POSPOS
	// EXPLICIT hand-crafts a finite better-than graph.
	EXPLICIT = pref.EXPLICIT
	// AROUND prefers values closest to a target.
	AROUND = pref.AROUND
	// AROUNDTime is AROUND over date/time targets.
	AROUNDTime = pref.AROUNDTime
	// BETWEEN prefers values inside an interval, then by boundary distance.
	BETWEEN = pref.BETWEEN
	// LOWEST prefers smaller values; a chain.
	LOWEST = pref.LOWEST
	// HIGHEST prefers larger values; a chain.
	HIGHEST = pref.HIGHEST
	// SCORE orders by an arbitrary scoring function.
	SCORE = pref.SCORE
)

// Complex preference constructors (§3.3).
var (
	// Pareto combines two equally important preferences (⊗).
	Pareto = pref.Pareto
	// ParetoAll folds ⊗ over two or more preferences.
	ParetoAll = pref.ParetoAll
	// Prioritized makes the left preference more important (&).
	Prioritized = pref.Prioritized
	// PrioritizedAll folds & over two or more preferences.
	PrioritizedAll = pref.PrioritizedAll
	// Rank accumulates Scorer preferences numerically: rank(F).
	Rank = pref.Rank
	// WeightedSum builds the combining function F = Σ wi·xi.
	WeightedSum = pref.WeightedSum
	// Dual reverses a preference (Pδ).
	Dual = pref.Dual
	// AntiChain is the empty order A↔ over attribute names.
	AntiChain = pref.AntiChain
	// AntiChainSet is the empty order S↔ over an explicit value set.
	AntiChainSet = pref.AntiChainSet
	// Intersection aggregates by conjunction (♦).
	Intersection = pref.Intersection
	// DisjointUnion aggregates disjoint preferences by disjunction (+).
	DisjointUnion = pref.DisjointUnion
	// LinearSum concatenates orders over disjoint domains (⊕).
	LinearSum = pref.LinearSum
	// GroupByPref builds A↔ & P, the grouped preference of Definition 16.
	GroupByPref = pref.GroupBy
)

// Evaluation algorithms.
const (
	// Auto picks an algorithm from the preference's structure.
	Auto = engine.Auto
	// Naive is the exhaustive O(n²) reference evaluator.
	Naive = engine.Naive
	// BNL is block-nested-loops.
	BNL = engine.BNL
	// SFS is sort-filter-skyline.
	SFS = engine.SFS
	// Decomposition evaluates via the paper's Propositions 8–12.
	Decomposition = engine.Decomposition
)

// BMO evaluates the preference query σ[P](R) under the Best-Matches-Only
// model (Definition 15) with automatic algorithm selection.
func BMO(p Preference, r *Relation) *Relation {
	return engine.BMO(p, r, engine.Auto)
}

// BMOWith is BMO with an explicit algorithm choice.
func BMOWith(p Preference, r *Relation, alg Algorithm) *Relation {
	return engine.BMO(p, r, alg)
}

// GroupBy evaluates σ[P groupby A](R): the preference query within groups
// of equal A-values (Definition 16).
func GroupBy(p Preference, groupAttrs []string, r *Relation) *Relation {
	return engine.GroupBy(p, groupAttrs, r, engine.Auto)
}

// Cascade runs a cascade of preference queries σ[Pn](…σ[P1](R)…), the
// Preference SQL CASCADE semantics.
func Cascade(r *Relation, ps ...Preference) *Relation {
	return engine.Cascade(r, engine.Auto, ps...)
}

// ResultSize computes size(P, R), the number of distinct A-values in the
// BMO result (Definition 18).
func ResultSize(p Preference, r *Relation) int {
	return engine.ResultSize(p, r, engine.Auto)
}

// PerfectMatches filters σ[P](R) down to the tuples that are perfect
// matches of P (Definition 14b), where max(P) is decidable.
func PerfectMatches(p Preference, r *Relation) *Relation {
	return engine.PerfectMatches(p, r, engine.Auto)
}

// TopK returns the k best rows under a Scorer — the ranked (k-best) query
// model of §6.2.
func TopK(p Scorer, r *Relation, k int) []rank.Result {
	return rank.TopK(p, r, k)
}

// BetterThanGraph builds the better-than graph (Hasse diagram) of P over
// the rows of R, for visualization per Definition 2.
func BetterThanGraph(p Preference, r *Relation) *Graph {
	return pref.NewGraph(p, r.Tuples())
}

// Level reports the discrete quality level of t's value under a
// non-numerical base preference (§6.1 LEVEL).
func Level(p Preference, t Tuple) (int, bool) { return quality.Level(p, t) }

// Distance reports the continuous quality distance of t's value under a
// numerical base preference (§6.1 DISTANCE).
func Distance(p Preference, t Tuple) (float64, bool) { return quality.Distance(p, t) }
