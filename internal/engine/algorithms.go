package engine

import (
	"math"
	"slices"

	"repro/internal/pref"
	"repro/internal/relation"
)

// naive performs exhaustive pairwise better-than tests over the candidate
// index set: O(n²) comparisons, the paper's reference strategy (§5.1).
func naive(p pref.Preference, r *relation.Relation, idx []int, cc *canceller) []int {
	var out []int
	for _, i := range idx {
		ti := r.Tuple(i)
		maximal := true
		for _, j := range idx {
			cc.tick()
			if i == j {
				continue
			}
			if p.Less(ti, r.Tuple(j)) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, i)
		}
	}
	return out
}

// bnl is the block-nested-loops algorithm: maintain a window of mutually
// unranked candidates; each incoming tuple either is dominated by a window
// member, evicts dominated members, or joins the window. The window is the
// exact BMO result after one pass because domination is transitive.
func bnl(p pref.Preference, r *relation.Relation, idx []int, cc *canceller) []int {
	window := make([]int, 0, 16)
	for _, i := range idx {
		cc.tick()
		ti := r.Tuple(i)
		dominated := false
		keep := window[:0]
		for _, w := range window {
			tw := r.Tuple(w)
			if p.Less(ti, tw) {
				// The candidate is beaten. By transitivity it cannot have
				// dominated any earlier window member (they are mutually
				// unranked), so the window is unchanged.
				dominated = true
				break
			}
			if !p.Less(tw, ti) {
				keep = append(keep, w)
			}
		}
		if dominated {
			continue
		}
		window = append(keep, i)
	}
	slices.Sort(window)
	return window
}

// keyColumns derives the structure of a sort key compatible with P: a list
// of lexicographic key columns, each the set of Scorer leaves whose
// dense-ranked score vectors sum into that column. Comparing tuples by
// descending lexicographic key is then compatible with P — x <P y implies
// key(x) <lex key(y) strictly — so SFS can visit best-first and confirm on
// sight.
//
// Keys exist for Scorer leaves (one column, one leaf), prioritized
// accumulations (column concatenation: lexicographic order respects & by
// Definition 9), and Pareto accumulations of scalar-keyed operands (leaf
// union summed into one column: each addend is ≤ with at least one <, per
// Definition 8). The summed components are dense ranks of the leaf scores,
// not the raw scores: ranks are always finite, so the sum stays strictly
// monotone where a ±Inf raw component (NULL, off-scale value) would absorb
// the finite part and collapse a ranked pair to equal keys — the
// soundness edge the compiled SortKeys fixed first (see pref.Compiled).
func keyColumns(p pref.Preference) ([][]func(pref.Tuple) float64, bool) {
	if leaves, ok := scalarLeaves(p); ok {
		return [][]func(pref.Tuple) float64{leaves}, true
	}
	if q, ok := p.(*pref.PrioritizedPref); ok {
		k1, ok1 := keyColumns(q.Left())
		k2, ok2 := keyColumns(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return append(k1, k2...), true
	}
	return nil, false
}

// scalarLeaves flattens the scorer leaves of a scalar-keyed term: Scorers
// directly, Pareto trees of scalars by leaf union.
func scalarLeaves(p pref.Preference) ([]func(pref.Tuple) float64, bool) {
	switch q := p.(type) {
	case pref.Scorer:
		return []func(pref.Tuple) float64{q.ScoreOf}, true
	case *pref.ParetoPref:
		l, ok1 := scalarLeaves(q.Left())
		r, ok2 := scalarLeaves(q.Right())
		if !ok1 || !ok2 {
			return nil, false
		}
		return append(l, r...), true
	}
	return nil, false
}

// interpretedKeyVecs materializes the per-dimension sort key vectors of p
// over a tuple collection: every leaf scores once per tuple, the score
// vector dense-rank-transforms, and ranks sum per key column. It is the
// interface-path mirror of Compiled.SortKeys; ok=false when the term has
// no compatible key.
func interpretedKeyVecs(p pref.Preference, tuples []pref.Tuple) ([][]float64, bool) {
	cols, ok := keyColumns(p)
	if !ok {
		return nil, false
	}
	keys := make([][]float64, len(cols))
	scores := make([]float64, len(tuples))
	for d, leaves := range cols {
		sum := make([]float64, len(tuples))
		for _, leaf := range leaves {
			for i, t := range tuples {
				scores[i] = leaf(t)
			}
			addDenseRanks(sum, scores)
		}
		keys[d] = sum
	}
	return keys, true
}

// addDenseRanks adds the dense ranks of scores into sum, position-wise:
// equal scores share a rank, higher scores get higher ranks, and every NaN
// joins one lowest class (NaN scores are unranked against everything, so
// any placement keeping equal values equal is compatible) — the same
// transform Compiled.SortKeys applies to its score vectors.
func addDenseRanks(sum, scores []float64) {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case fltLess(scores[a], scores[b]):
			return -1
		case fltLess(scores[b], scores[a]):
			return 1
		}
		return 0
	})
	rank := 0.0
	for k, i := range order {
		if k > 0 {
			prev := scores[order[k-1]]
			if fltLess(prev, scores[i]) || fltLess(scores[i], prev) {
				rank++
			}
		}
		sum[i] += rank
	}
}

// sfs runs sort-filter-skyline: sort by descending compatible key, then a
// single pass comparing each candidate only against confirmed result
// members. The key vectors are materialized once over the candidate set
// with dense-ranked components (see interpretedKeyVecs). Falls back to BNL
// when no compatible key exists.
func sfs(p pref.Preference, r *relation.Relation, idx []int, cc *canceller) []int {
	if _, ok := keyColumns(p); !ok {
		// Keyability is input-independent: decide before materializing the
		// candidate tuple views.
		return bnl(p, r, idx, cc)
	}
	tuples := make([]pref.Tuple, len(idx))
	for k, i := range idx {
		tuples[k] = r.Tuple(i)
	}
	keys, ok := interpretedKeyVecs(p, tuples)
	if !ok {
		return bnl(p, r, idx, cc)
	}
	cc.check()
	// Candidates with equal keys are mutually unranked (x <P y forces a
	// strictly smaller key now that rank components are finite), so the
	// filter pass keeps them all regardless of visit order and stability
	// is unnecessary.
	order := make([]int, len(idx))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
	var result []int
	for _, k := range order {
		cc.tick()
		tc := tuples[k]
		dominated := false
		for _, w := range result {
			if p.Less(tc, tuples[w]) {
				dominated = true
				break
			}
		}
		if !dominated {
			result = append(result, k)
		}
	}
	out := make([]int, len(result))
	for j, k := range result {
		out[j] = idx[k]
	}
	slices.Sort(out)
	return out
}

// chainDims flattens a Pareto tree into its chain dimensions (LOWEST or
// HIGHEST leaves on distinct attributes). This is exactly the fragment the
// SKYLINE OF clause of [BKS01] covers; on it, the paper's equality-based
// Pareto semantics coincides with coordinate-wise score dominance, which
// the blocked filter's exact verdicts (chainExact), the result cache's
// coordinate carry and the cross-shard stream rely on.
func chainDims(p pref.Preference) ([]pref.Scorer, bool) {
	var dims []pref.Scorer
	if !chainProduct(p, func(s pref.Scorer) { dims = append(dims, s) }) {
		return nil, false
	}
	return dims, true
}

// chainProduct reports whether p is a chain product (see chainDims),
// handing its dimensions to leaf in term order — all of them only when it
// is one.
func chainProduct(p pref.Preference, leaf func(pref.Scorer)) bool {
	n := 0
	// The leaves' attributes are distinct iff there are as many leaves as
	// attributes in the term's (deduplicated) set.
	return chainLeaves(p, func(s pref.Scorer) { n++; leaf(s) }) && n == len(p.Attrs())
}

// chainLeaves hands the LOWEST/HIGHEST leaves of a Pareto tree to leaf;
// false when p is no such tree.
func chainLeaves(p pref.Preference, leaf func(pref.Scorer)) bool {
	switch q := p.(type) {
	case *pref.Lowest:
		leaf(q)
		return true
	case *pref.Highest:
		leaf(q)
		return true
	case *pref.ParetoPref:
		return chainLeaves(q.Left(), leaf) && chainLeaves(q.Right(), leaf)
	}
	return false
}

// dominates reports coordinate-wise dominance: a ≥ b everywhere and a > b
// somewhere (all dimensions maximize). A NaN score on either side makes
// the dimension unranked AND unequal (NaN values compare unequal under
// the paper's equality semantics), so it blocks dominance — the raw `<`
// comparisons would silently treat NaN pairs as equal and drop maxima.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return false
		}
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// chainImagesExact reports that no chain dimension reads a TIME column:
// the score scale of an instant is whole seconds, so unequal instants tie
// at a finite coordinate — the finite twin of the ±Inf collapse, decided
// by the column type alone (the compiled paths carry the same fact in
// pref.InfCollapse).
func chainImagesExact(dims []pref.Scorer, r *relation.Relation) bool {
	for _, s := range dims {
		if ci, ok := r.Schema().Index(s.Attrs()[0]); ok && r.Schema().Col(ci).Type == relation.Time {
			return false
		}
	}
	return true
}

// fltLess totally orders float64 with NaN first: the raw `<` is not a
// total order in the presence of NaN (every comparison reports false),
// which a sort comparator must be.
func fltLess(a, b float64) bool {
	if math.IsNaN(a) {
		return !math.IsNaN(b)
	}
	if math.IsNaN(b) {
		return false
	}
	return a < b
}
