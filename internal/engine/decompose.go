package engine

import (
	"slices"

	"repro/internal/pref"
	"repro/internal/relation"
)

// decomposedMode evaluates σ[P](R) by structural recursion over the
// preference term using the paper's decomposition theorems:
//
//	Prop 8:  σ[P1+P2](R) = σ[P1](R) ∩ σ[P2](R)
//	Prop 9:  σ[P1♦P2](R) = σ[P1](R) ∪ σ[P2](R) ∪ YY(P1, P2)R
//	Prop 10: σ[P1&P2](R) = σ[P1](R) ∩ σ[P2 groupby A1](R)   (A1 ∩ A2 = ∅)
//	Prop 11: σ[P1&P2](R) = σ[P2](σ[P1](R))                  (P1 a chain)
//	Prop 12: σ[P1⊗P2](R) = (σ[P1](R) ∩ σ[P2 groupby A1](R)) ∪
//	                       (σ[P2](R) ∩ σ[P1 groupby A2](R)) ∪
//	                       YY(P1&P2, P2&P1)R
//
// Leaves and non-decomposable terms evaluate with BNL — over the compiled
// columnar form of the sub-term whenever one binds. Each sub-term compiles
// once per query against the whole relation (position-addressed, so every
// recursion level and every group shares the bound form through the
// decomposer's memo) instead of falling back to the interface path
// throughout. A canceller threads through the recursion:
// the leaf BNL passes, the YY common-dominator scans and the group loops
// all tick on it.
func decomposedModeCC(p pref.Preference, r *relation.Relation, idx []int, mode EvalMode, cc *canceller) []int {
	d := &decomposer{r: r, mode: mode, cc: cc}
	return d.eval(p, idx)
}

// decomposedCC is decomposedModeCC under the default evaluation mode;
// execute routes here.
func decomposedCC(p pref.Preference, r *relation.Relation, idx []int, cc *canceller) []int {
	return decomposedModeCC(p, r, idx, EvalAuto, cc)
}

// decomposer carries the evaluation state of one decomposition query: the
// relation, the evaluation mode every sub-term compile respects
// (EvalInterpreted keeps the historical interface path end-to-end, the
// agreement-test baseline), and a per-query memo of bound forms. The memo
// is keyed by sub-term pointer identity — sub-terms are shared across the
// recursion — so a sub-term binds once per query, not once per group of a
// Prop 10/12 grouping.
type decomposer struct {
	r     *relation.Relation
	mode  EvalMode
	bound map[pref.Preference]*pref.Compiled
	cc    *canceller
}

// compiled returns the sub-term's bound form (nil when it does not bind),
// memoized for the duration of this query.
func (d *decomposer) compiled(p pref.Preference) *pref.Compiled {
	if c, hit := d.bound[p]; hit {
		return c
	}
	var c *pref.Compiled
	if d.mode != EvalInterpreted {
		c, _ = pref.Compile(p, d.r)
	}
	if d.bound == nil {
		d.bound = make(map[pref.Preference]*pref.Compiled)
	}
	d.bound[p] = c
	return c
}

// eval applies the decomposition theorems by structural recursion.
func (d *decomposer) eval(p pref.Preference, idx []int) []int {
	switch q := p.(type) {
	case *pref.DisjointUnionPref:
		return intersect(
			d.eval(q.Left(), idx),
			d.eval(q.Right(), idx),
		)
	case *pref.IntersectionPref:
		return union(
			d.eval(q.Left(), idx),
			d.eval(q.Right(), idx),
			d.yy(q.Left(), q.Right(), idx),
		)
	case *pref.PrioritizedPref:
		return d.prioritized(q, idx)
	case *pref.ParetoPref:
		return d.pareto(q, idx)
	}
	return d.leaf(p, idx)
}

// leaf evaluates a non-decomposable term with BNL over its compiled form
// when the term binds (fetched through the memo, so the same sub-term
// never binds twice per query), and over the interface path
// otherwise.
func (d *decomposer) leaf(p pref.Preference, idx []int) []int {
	if c := d.compiled(p); c != nil {
		return bnlCompiled(c, idx, d.cc)
	}
	return bnl(p, d.r, idx, d.cc)
}

// prioritized applies Prop 4a (shared attributes), Prop 11 (chain
// shortcut) or Prop 10 (grouping), falling back to BNL when the attribute
// sets overlap without being equal.
func (d *decomposer) prioritized(q *pref.PrioritizedPref, idx []int) []int {
	a1, a2 := q.Left().Attrs(), q.Right().Attrs()
	if pref.AttrsEqual(a1, a2) {
		// Prop 4a: P1 & P2 ≡ P1 on shared attributes.
		return d.eval(q.Left(), idx)
	}
	if !pref.AttrsDisjoint(a1, a2) {
		return d.leaf(q, idx)
	}
	if isStructuralChain(q.Left()) {
		// Prop 11: cascade of preference queries.
		return d.eval(q.Right(), d.eval(q.Left(), idx))
	}
	// Prop 10: σ[P1](R) ∩ σ[P2 groupby A1](R).
	return intersect(
		d.eval(q.Left(), idx),
		d.groupOn(q.Right(), a1, idx),
	)
}

// pareto applies the main decomposition theorem Prop 12. It requires
// disjoint attribute sets (the prioritized sub-terms degrade to Prop 4a
// otherwise, which would change the semantics); shared-attribute Pareto
// terms use Prop 6 (⊗ ≡ ♦ on identical attribute sets) or BNL.
func (d *decomposer) pareto(q *pref.ParetoPref, idx []int) []int {
	a1, a2 := q.Left().Attrs(), q.Right().Attrs()
	if pref.AttrsEqual(a1, a2) {
		// Prop 6: P1 ⊗ P2 ≡ P1 ♦ P2 on identical attribute sets.
		return union(
			d.eval(q.Left(), idx),
			d.eval(q.Right(), idx),
			d.yy(q.Left(), q.Right(), idx),
		)
	}
	if !pref.AttrsDisjoint(a1, a2) {
		return d.leaf(q, idx)
	}
	term1 := intersect(
		d.eval(q.Left(), idx),
		d.groupOn(q.Right(), a1, idx),
	)
	term2 := intersect(
		d.eval(q.Right(), idx),
		d.groupOn(q.Left(), a2, idx),
	)
	term3 := d.yy(pref.Prioritized(q.Left(), q.Right()), pref.Prioritized(q.Right(), q.Left()), idx)
	return union(term1, term2, term3)
}

// yy computes YY(P1, P2)R over the candidate rows (Definition 17c): the
// rows whose projection is non-maximal in both P1R and P2R yet has no
// common dominator, i.e. P1↑t[A] ∩ P2↑t[A] ∩ R[A] = ∅. The common-
// dominator scan runs over the compiled forms of both terms when they
// bind; these are shared with the max(P1)/max(P2) leaf passes.
func (d *decomposer) yy(p1, p2 pref.Preference, idx []int) []int {
	max1 := toSet(d.leaf(p1, idx))
	max2 := toSet(d.leaf(p2, idx))
	c1 := d.compiled(p1)
	c2 := d.compiled(p2)
	bothLess := func(i, j int) bool {
		return c1.Less(i, j) && c2.Less(i, j)
	}
	if c1 == nil || c2 == nil {
		bothLess = func(i, j int) bool {
			ti, tj := d.r.Tuple(i), d.r.Tuple(j)
			return p1.Less(ti, tj) && p2.Less(ti, tj)
		}
	}
	var out []int
	for _, i := range idx {
		if max1[i] || max2[i] {
			continue // maximal in one of them, not in Nmax ∩ Nmax
		}
		common := false
		for _, j := range idx {
			d.cc.tick()
			if i == j {
				continue
			}
			if bothLess(i, j) {
				common = true
				break
			}
		}
		if !common {
			out = append(out, i)
		}
	}
	return out
}

// yy is the package-level YY(P1, P2)R entry point under the default
// evaluation mode; the decomposition law tests exercise it directly.
func yy(p1, p2 pref.Preference, r *relation.Relation, idx []int) []int {
	return (&decomposer{r: r, mode: EvalAuto}).yy(p1, p2, idx)
}

// groupOn evaluates σ[P groupby A] restricted to a candidate index set,
// used inside the decomposition recursion. Groups partition by the
// relation's equality codes (relation.GroupsOn — no per-row key strings),
// and every group's recursion shares the sub-term bound forms through the
// memo.
func (d *decomposer) groupOn(p pref.Preference, groupAttrs []string, idx []int) []int {
	var out []int
	for _, group := range d.r.GroupsOn(groupAttrs, idx) {
		d.cc.check()
		out = append(out, d.eval(p, group)...)
	}
	slices.Sort(out)
	return out
}

// isStructuralChain reports whether p is a chain by construction: LOWEST
// and HIGHEST are chains (Definition 7c), and prioritized accumulations of
// chains are chains (Proposition 3h). SCORE/rank(F) preferences are chains
// only for injective scoring functions, which is not decidable here, so
// they report false (the grouping path of Prop 10 is then used, which is
// always correct).
func isStructuralChain(p pref.Preference) bool {
	switch q := p.(type) {
	case *pref.Lowest, *pref.Highest:
		return true
	case *pref.PrioritizedPref:
		return isStructuralChain(q.Left()) && isStructuralChain(q.Right())
	}
	return false
}

func toSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// intersect returns the sorted intersection of index sets.
func intersect(a, b []int) []int {
	inB := toSet(b)
	var out []int
	for _, i := range a {
		if inB[i] {
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return out
}

// union returns the sorted duplicate-free union of index sets.
func union(sets ...[]int) []int {
	seen := make(map[int]struct{})
	var out []int
	for _, s := range sets {
		for _, i := range s {
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return out
}
