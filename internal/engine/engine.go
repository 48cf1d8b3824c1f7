// Package engine evaluates preference queries σ[P](R) under the BMO
// ("Best Matches Only") query model of §5: retrieve exactly the tuples
// whose projection is maximal in the database preference PR (Definition
// 15). It provides the naive O(n²) evaluator, the two passes the planner
// chooses between — block-nested-loops (BNL) and sort-filter-skyline (SFS),
// each run as one pass over the candidates — and the paper's own
// decomposition evaluator built from Propositions 8–12, including the YY
// term and groupby evaluation. A statement runs on more than one core only
// through the shard fan-out (sharded.go): one pass per shard, then the
// cross-shard fold.
package engine

import (
	"context"
	"fmt"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Algorithm selects the physical evaluation strategy. All algorithms
// compute the same declarative result; tests verify pairwise agreement.
type Algorithm int

// Evaluation algorithms.
const (
	// Auto plans the pass: BNL or, when a compatible sort key exists, SFS
	// — whichever the cost model prices lowest for the term and the input
	// (planCore).
	Auto Algorithm = iota
	// Naive performs exhaustive pairwise better-than tests, O(n²); the
	// reference implementation (§5.1).
	Naive
	// BNL is the block-nested-loops algorithm of [BKS01]: a window of
	// mutually unranked candidates.
	BNL
	// SFS is sort-filter-skyline: presort by a topological key compatible
	// with P, then a single filtering pass. Requires a Scorer-composed
	// preference; falls back to BNL otherwise.
	SFS
	// Decomposition evaluates via the paper's decomposition theorems:
	// Prop 8 (+), Prop 9 (♦ with YY), Prop 10/11 (&), Prop 12 (⊗);
	// non-decomposable terms evaluate with BNL.
	Decomposition
)

// String renders the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Naive:
		return "naive"
	case BNL:
		return "bnl"
	case SFS:
		return "sfs"
	case Decomposition:
		return "decomposition"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// BMO evaluates the preference query σ[P](R) with the chosen algorithm and
// returns the qualifying rows as a new relation preserving R's row order.
func BMO(p pref.Preference, r *relation.Relation, alg Algorithm) *relation.Relation {
	return r.Pick(BMOIndices(p, r, alg))
}

// BMOIndices is BMO returning the indices of qualifying rows in R. The
// preference is compiled to columnar form whenever possible (EvalAuto);
// BMOIndicesMode gives explicit control.
func BMOIndices(p pref.Preference, r *relation.Relation, alg Algorithm) []int {
	return BMOIndicesMode(p, r, alg, EvalAuto)
}

// BMOIndicesMode is BMOIndices under an explicit evaluation mode:
// EvalInterpreted forces the tuple-at-a-time interface path that compiled
// evaluation replaces, the baseline for benchmarks and agreement tests.
func BMOIndicesMode(p pref.Preference, r *relation.Relation, alg Algorithm, mode EvalMode) []int {
	return evalOn(p, r, alg, mode, allIndices(r.Len()), nil, nil)
}

// BMOIndicesOn evaluates the preference query over the subset of R at the
// given candidate row positions and returns the qualifying positions in
// ascending order. A candidate set that is a small fraction of R binds
// over a gathered copy of just those rows, anything larger over R's full
// column arrays (see BindScope). idx must not contain duplicates.
func BMOIndicesOn(p pref.Preference, r *relation.Relation, alg Algorithm, idx []int) []int {
	return evalOn(p, r, alg, EvalAuto, idx, nil, nil)
}

// GroupBy evaluates σ[P groupby A](R) = σ[A↔ & P](R) per Definition 16:
// R is grouped by equal A-values and the preference query is evaluated
// within each group — GroupByShardedOn over R as its one shard.
func GroupBy(p pref.Preference, groupAttrs []string, r *relation.Relation, alg Algorithm) *relation.Relation {
	s := relation.OneShard(r)
	out, err := GroupByShardedOn(context.Background(), p, groupAttrs, s, alg, nil)
	if err != nil {
		panic(err) // a contained worker panic: nothing else fails without a context
	}
	return r.Pick(out.GlobalIDs(s))
}

// Cascade evaluates a cascade of preference queries σ[Pn](…σ[P1](R)…),
// the Preference SQL CASCADE clause. By Proposition 11 a cascade equals a
// prioritized preference query whenever each prefix preference is a chain.
func Cascade(r *relation.Relation, alg Algorithm, ps ...pref.Preference) *relation.Relation {
	out := r
	for _, p := range ps {
		out = BMO(p, out, alg)
	}
	return out
}

// ResultSize computes size(P, R) = card(π_A(σ[P](R))) per Definition 18:
// the number of distinct A-values in the BMO result.
func ResultSize(p pref.Preference, r *relation.Relation, alg Algorithm) int {
	res := BMO(p, r, alg)
	return res.DistinctCount(p.Attrs())
}

// PerfectMatches returns the rows of σ[P](R) that are perfect matches per
// Definition 14b: their projection is maximal not only in PR but in the
// whole preference P. Since max(P) over an infinite domain is undecidable
// in general, the check is delegated to a per-preference oracle where one
// exists; rows without an oracle report false.
func PerfectMatches(p pref.Preference, r *relation.Relation, alg Algorithm) *relation.Relation {
	res := BMO(p, r, alg)
	var keep []int
	for i := 0; i < res.Len(); i++ {
		if IsPerfect(p, res.Tuple(i)) {
			keep = append(keep, i)
		}
	}
	return res.Pick(keep)
}

// IsPerfect reports whether t's projection lies in max(P), the "dream
// objects" of P, for preferences where max(P) is decidable: POS-style
// favorite sets, EXPLICIT graph maxima, AROUND/BETWEEN zero distance, and
// accumulations thereof.
func IsPerfect(p pref.Preference, t pref.Tuple) bool {
	switch q := p.(type) {
	case *pref.Pos:
		v, ok := t.Get(q.Attr())
		return ok && q.PosSet().Contains(v)
	case *pref.Neg:
		v, ok := t.Get(q.Attr())
		return ok && !q.NegSet().Contains(v)
	case *pref.PosNeg:
		v, ok := t.Get(q.Attr())
		return ok && q.PosSet().Contains(v)
	case *pref.PosPos:
		v, ok := t.Get(q.Attr())
		return ok && q.Pos1Set().Contains(v)
	case *pref.Explicit:
		v, ok := t.Get(q.Attr())
		if !ok {
			return false
		}
		if !q.Range().Contains(v) {
			return false
		}
		for _, w := range q.Range().Values() {
			if q.InGraphLess(v, w) {
				return false
			}
		}
		return true
	case *pref.Around:
		v, ok := t.Get(q.Attr())
		return ok && q.Distance(v) == 0
	case *pref.Between:
		v, ok := t.Get(q.Attr())
		return ok && q.Distance(v) == 0
	case *pref.AntiChainPref:
		return true
	case *pref.ParetoPref:
		return IsPerfect(q.Left(), t) && IsPerfect(q.Right(), t)
	case *pref.PrioritizedPref:
		return IsPerfect(q.Left(), t) && IsPerfect(q.Right(), t)
	}
	return false
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// ResolveAuto plans Auto for a preference over an input of n rows without
// a relation: shape and cardinality only, no statistics. Query explanation
// uses it where a step's input is itself an estimate (a CASCADE step's is
// the preceding step's estimated result); PlanWithInput gives the
// statistics-informed decision over known candidates. The plan explains;
// it holds no relation to run on.
func ResolveAuto(p pref.Preference, n int) *Plan {
	return planCore(p, nil, n, Env{}, BindFull)
}
