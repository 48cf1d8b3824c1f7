package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/workload"
)

// The kernel agreement battery: the flat record kernel against the
// predicate tree and the interpreted preference, pair by pair, on data
// where a score tie is not a projection tie.

// kernelTestRelation extends the gathered-bind edge relation with signed
// zeros and an integer twin of the float column (so x and y tie across
// types), keeping its NULLs, NaNs, ±Inf values and small domains.
func kernelTestRelation(rng *rand.Rand, n int) *relation.Relation {
	r := gatheredTestRelation(rng, n)
	out := relation.New("R", r.Schema())
	for i := 0; i < r.Len(); i++ {
		row := append(relation.Row(nil), r.Row(i)...)
		switch rng.Intn(12) {
		case 0:
			row[1] = 0.0
		case 1:
			row[1] = math.Copysign(0, -1)
		}
		out.MustInsert(row)
	}
	return out
}

// kernelTestTerm draws terms on both sides of the fragment boundary:
// gatheredTerm's Pareto / PRIOR TO nestings (its EXPLICIT leaf and its &
// inside ⊗ are outside), overlapping attribute names, deeper chains, a
// dual and an intersection.
func kernelTestTerm(rng *rand.Rand) pref.Preference {
	a, b, c := gatheredLeaf(rng), gatheredLeaf(rng), gatheredLeaf(rng)
	switch rng.Intn(10) {
	case 0:
		return pref.Pareto(pref.AROUND("x", 3), pref.Pareto(pref.LOWEST("x"), pref.HIGHEST("y"))) // Example 3: shared attribute
	case 1:
		return pref.Prioritized(pref.Prioritized(a, pref.Pareto(b, c)), pref.MustBETWEEN("x", 2, 5))
	case 2:
		return pref.ParetoProduct(a, pref.Pareto(b, c), pref.MustBETWEEN("y", 3, 6))
	case 3:
		return pref.Pareto(pref.Dual(a), b)
	case 4:
		return pref.MustIntersection(pref.Prioritized(pref.LOWEST("x"), pref.HIGHEST("y")), pref.Prioritized(pref.HIGHEST("y"), pref.LOWEST("x")))
	case 5:
		return a
	}
	return gatheredTerm(rng)
}

// hasTie reports whether the dimension carries a tie operand (all but the
// single leaf of a final group do).
func hasTie(dim pref.FlatDim) bool { return dim.Tie.Code != nil || dim.Tie.Val != nil }

// mirrorOrder is compare(j, i) given compare(i, j).
var mirrorOrder = [...]order{ordEqual: ordEqual, ordLess: ordGreater, ordGreater: ordLess, ordIncomparable: ordIncomparable}

// flatLeavesOf is the test's own reading of a fragment term: the leaves
// of each Pareto group, groups in priority order.
func flatLeavesOf(p pref.Preference) [][]pref.Preference {
	if q, ok := p.(*pref.PrioritizedPref); ok {
		return append(flatLeavesOf(q.Left()), flatLeavesOf(q.Right())...)
	}
	var leaves func(p pref.Preference) []pref.Preference
	leaves = func(p pref.Preference) []pref.Preference {
		switch q := p.(type) {
		case *pref.ParetoPref:
			return append(leaves(q.Left()), leaves(q.Right())...)
		case *pref.ProductPref:
			var out []pref.Preference
			for _, part := range q.Parts() {
				out = append(out, leaves(part)...)
			}
			return out
		}
		return []pref.Preference{p}
	}
	return [][]pref.Preference{leaves(p)}
}

// interpretedOrder derives the three-way outcome from the interpreted
// preference and projection equality alone — Less both ways, then EqualOn
// on every leaf's attribute but a single final leaf's.
func interpretedOrder(p pref.Preference, x, y pref.Tuple) order {
	switch {
	case p.Less(x, y):
		return ordLess
	case p.Less(y, x):
		return ordGreater
	}
	groups := flatLeavesOf(p)
	for g, leaves := range groups {
		if g == len(groups)-1 && len(leaves) == 1 {
			break
		}
		for _, leaf := range leaves {
			if !pref.EqualOn(x, y, leaf.Attrs()) {
				return ordIncomparable
			}
		}
	}
	return ordEqual
}

// checkKernelPairs binds a fragment term over src — a whole relation, a
// gathered subset, a cross-shard merge source — and holds the flat
// kernel's three-way outcome on every pair of rows to the predicate tree
// (Less both ways) and to the interpreted preference plus projection
// equality; the outcome is antisymmetric and a row equals itself; and the
// window pass, on records and on the score blocks, keeps the rows the
// tree finds unbeaten.
func checkKernelPairs(t *testing.T, what string, p pref.Preference, src pref.Source) {
	t.Helper()
	c, ok := pref.Compile(p, src)
	if !ok {
		t.Fatalf("%s: %s must compile", what, p)
	}
	fs := c.Flat()
	if fs == nil {
		t.Fatalf("%s: %s must carry a flat shape", what, p)
	}
	all := allIndices(src.Len())
	k := gatherFlat(fs, all, nil)
	defer k.release()
	outcome := make([][]order, len(all))
	for i := range all {
		outcome[i] = make([]order, len(all))
		k.stage(i)
		for j := range all {
			outcome[i][j] = k.compare(j)
		}
	}
	for i := range all {
		if outcome[i][i] != ordEqual {
			t.Fatalf("%s %s: row %d against itself: %d", what, p, i, outcome[i][i])
		}
		x := src.Tuple(i)
		for j := range all {
			if i == j {
				continue
			}
			y, got := src.Tuple(j), outcome[i][j]
			if less, greater := c.Less(i, j), c.Less(j, i); (got == ordLess) != less || (got == ordGreater) != greater {
				t.Fatalf("%s %s: rows %v / %v: kernel %d, tree less=%v greater=%v", what, p, x, y, got, less, greater)
			}
			if want := interpretedOrder(p, x, y); got != want {
				t.Fatalf("%s %s: rows %v / %v: kernel %d, interpreted %d", what, p, x, y, got, want)
			}
			if outcome[j][i] != mirrorOrder[got] {
				t.Fatalf("%s %s: rows %d,%d: %d one way, %d back", what, p, i, j, got, outcome[j][i])
			}
		}
	}
	// The window pass keeps exactly the rows the tree finds unbeaten, on
	// records and on the score blocks.
	var want []int
	for i := range all {
		if !slices.ContainsFunc(all, func(j int) bool { return c.Less(i, j) }) {
			want = append(want, i)
		}
	}
	for _, blocks := range []bool{false, AVX2Available()} {
		if got := windowOn(c, blocks, all); !sameInts(got, want) {
			t.Fatalf("%s %s: window pass (blocks %v) keeps %v, the tree %v", what, p, blocks, got, want)
		}
	}
}

// TestFlatKernelAgreesWithTreeAndInterpreted: exactly the terms of the
// flat fragment carry a shape, and under every bind a statement can get —
// the whole relation, a gathered subset, the cross-shard merge source
// (rows of several shards under one form), each of them over a paged
// store too — the kernel agrees pair by pair with the tree and with the
// interpreted preference (checkKernelPairs).
func TestFlatKernelAgreesWithTreeAndInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	flatTerms := 0
	for trial := 0; trial < 120; trial++ {
		rel := kernelTestRelation(rng, 60)
		p := kernelTestTerm(rng)
		c, ok := pref.Compile(p, rel)
		if !ok {
			t.Fatalf("%s must compile", p)
		}
		if fs := c.Flat(); (fs != nil) != pref.FlatShaped(p) {
			t.Fatalf("%s: flat shape present=%v, in the fragment=%v", p, fs != nil, pref.FlatShaped(p))
		}
		if !pref.FlatShaped(p) {
			continue // outside the fragment: compiled_test pins the tree
		}
		flatTerms++
		checkKernelPairs(t, "whole relation", p, rel)
		sub := rng.Perm(rel.Len())[:rel.Len()/3] // unordered on purpose
		checkKernelPairs(t, "gathered", p, rel.Gather(sub))
		sharded, err := relation.ShardRelation(rel, 3, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		checkKernelPairs(t, "cross-shard merge", p, sharded.Gather(AllShardSets(sharded)))
		if trial%8 != 0 {
			continue
		}
		st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PageBytes: 1 << 10, PoolBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := st.ImportTable(sharded)
		if err != nil {
			t.Fatal(err)
		}
		paged := tbl.(*relation.Sharded)
		checkKernelPairs(t, "paged shard", p, paged.Shard(0))
		checkKernelPairs(t, "paged gathered", p, paged.Shard(1).Gather(allIndices(paged.Shard(1).Len()/2)))
		checkKernelPairs(t, "paged merge", p, paged.Gather(AllShardSets(paged)))
		st.Close()
	}
	if flatTerms < 40 {
		t.Fatalf("only %d of 120 drawn terms were in the fragment", flatTerms)
	}
}

// countingSource forwards a columnar source's optional interfaces and
// counts the equality-code requests.
type countingSource struct {
	pref.Source
	eqAsked int
}

func (s *countingSource) FloatColumn(attr string) ([]float64, []bool, bool) {
	return s.Source.(pref.FloatColumner).FloatColumn(attr)
}

func (s *countingSource) NumericColumn(attr string) ([]float64, []bool, bool) {
	return s.Source.(pref.NumericColumner).NumericColumn(attr)
}

func (s *countingSource) EqColumn(attr string) ([]uint32, bool) {
	s.eqAsked++
	return s.Source.(pref.EqColumner).EqColumn(attr)
}

func (s *countingSource) Resolves(attr string) bool {
	return s.Source.(pref.Resolver).Resolves(attr)
}

// TestNumericFlatTermBindsWithoutCodes: the served cold_skyline shapes —
// numeric attributes only — bind over the whole relation, over a gathered
// candidate set and over the cross-shard merge source without ever
// asking the source for equality codes, on a table whose clamped columns
// tie in bulk (workload.Numeric); the maxima over those binds still equal
// the interpreted BNL oracle. A string leaf beside them asks for its own
// codes only.
func TestNumericFlatTermBindsWithoutCodes(t *testing.T) {
	rel := workload.Numeric(4000, 4, workload.AntiCorrelated, 7)
	var cand []int
	for i := 0; i < rel.Len(); i++ {
		if v, _ := rel.Tuple(i).Get("d4"); v.(float64) <= 0.05 {
			cand = append(cand, i)
		}
	}
	if len(cand) < 50 || !relation.GatherWorthwhile(len(cand), rel.Len()) {
		t.Fatalf("test premise: %d of %d candidates", len(cand), rel.Len())
	}
	sharded, err := relation.ShardRelation(rel, 2, relation.ByRange("d1", relation.RangeBounds(rel, "d1", 2)...))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range kernelBenchShapes {
		// Row k of the picked copy is candidate k: slots on both sides.
		want := BMOIndicesMode(shape.p, rel.Pick(cand), BNL, EvalInterpreted)
		for name, src := range map[string]pref.Source{
			"whole relation":    rel,
			"gathered":          rel.Gather(cand),
			"cross-shard merge": sharded.Gather(AllShardSets(sharded)),
		} {
			cs := &countingSource{Source: src}
			c, ok := pref.Compile(shape.p, cs)
			if !ok || c.Flat() == nil {
				t.Fatalf("%s over %s must bind with a flat shape", shape.name, name)
			}
			if cs.eqAsked != 0 {
				t.Fatalf("%s over %s: a numeric-only bind asked for equality codes %d time(s)", shape.name, name, cs.eqAsked)
			}
			if name != "gathered" {
				continue
			}
			if got := bnlFlat(c.Flat(), allIndices(len(cand)), nil); !sameInts(got, want) {
				t.Fatalf("%s gathered: got %v want %v", shape.name, got, want)
			}
			// The sorted pass agrees, and its blocks settle on scores every
			// pair that does not tie on a dimension (the clamped columns
			// make a few): only those can be sent to the record compare.
			tied := uint64(0)
			for i := range cand {
				for j := 0; j < i; j++ {
					for _, dim := range c.Flat().Dims {
						if dim.Score[i] == dim.Score[j] {
							tied++
							break
						}
					}
				}
			}
			checks := blockRechecks.Load()
			if got := sfsCompiled(c, allIndices(len(cand)), nil); !sameInts(got, want) {
				t.Fatalf("%s gathered, sorted pass: got %v want %v", shape.name, got, want)
			}
			if n := blockRechecks.Load() - checks; n > tied {
				t.Fatalf("%s gathered: %d pairs re-checked on records, %d pairs tie on a dimension", shape.name, n, tied)
			}
			t.Logf("%s: %d candidates, %d pairs tied on a dimension, %d re-checked", shape.name, len(cand), tied, blockRechecks.Load()-checks)
		}
	}
	// Codes are still what a string attribute ties on.
	r := gatheredTestRelation(rand.New(rand.NewSource(23)), 200)
	cs := &countingSource{Source: r.Gather(allIndices(40))}
	p := pref.Pareto(pref.Pareto(pref.AROUND("x", 4), pref.LOWEST("q")), pref.POS("color", "red"))
	if c, ok := pref.Compile(p, cs); !ok || c.Flat() == nil || cs.eqAsked == 0 {
		t.Fatalf("a string leaf must still bind through codes (ok=%v asked=%d)", ok, cs.eqAsked)
	}
}

// TestFlatKernelSortedPassOnEdgeRows: on rows where a score tie is not a
// value tie — NULL, NaN, ±Inf, ±0, int twins, INTs beyond 2^53, TIME half
// seconds, strings, bulk ties, duplicates — the sorted pass (score-sum
// order, one-way filter) on score blocks and on flat records, the same
// filter under the stream's rank-key order (which also visits the NaN rows
// the sum order hands to the window pass), and the window pass on records
// and on score blocks all return
// the interpreted BNL oracle's maxima: single-group and multi-group shapes,
// whole-relation and gathered binds, in memory and paged.
func TestFlatKernelSortedPassOnEdgeRows(t *testing.T) {
	prev := AVX2Enabled()
	defer SetAVX2Enabled(prev)
	legs := []Dominance{DominanceFlat}
	if AVX2Available() {
		legs = append(legs, DominanceBlocksAVX2)
	}
	rng := rand.New(rand.NewSource(20))
	groups := map[bool]int{} // by "more than one group": binds whose sum order stood
	check := func(what string, p pref.Preference, src pref.Source, idx []int, want []int, oid func(i int) relation.Row) {
		t.Helper()
		c, ok := pref.Compile(p, src)
		if !ok || c.Flat() == nil {
			t.Fatalf("%s: %s must bind with a flat shape", what, p)
		}
		keys, _ := c.SortKeys()
		order := slices.Clone(idx)
		slices.SortFunc(order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
		for _, blocks := range []bool{false, AVX2Available()} {
			if got := oidsOf(oid, windowOn(c, blocks, idx)); !sameInts(got, want) {
				t.Fatalf("%s %s, window pass (blocks %v):\n got %v\nwant %v", what, p, blocks, got, want)
			}
		}
		for _, leg := range legs {
			SetAVX2Enabled(leg == DominanceBlocksAVX2)
			if got := oidsOf(oid, sfsCompiled(c, idx, nil)); !sameInts(got, want) {
				t.Fatalf("%s %s, sorted pass on %s:\n got %v\nwant %v", what, p, leg, got, want)
			}
			if got := oidsOf(oid, filterOn(c, leg, order)); !sameInts(got, want) {
				t.Fatalf("%s %s, rank-key order on %s:\n got %v\nwant %v", what, p, leg, got, want)
			}
		}
		f := newMaximaFilter(c)
		if f.sumOrder(c.Flat(), idx) {
			groups[len(c.Flat().Ends) > 1]++
		}
		f.release()
	}
	for trial := 0; trial < 160; trial++ {
		rel := kernelTestRelation(rng, 80+rng.Intn(240))
		p := kernelTestTerm(rng)
		if !pref.FlatShaped(p) {
			continue
		}
		sub := rng.Perm(rel.Len())[:rel.Len()/2]
		slices.Sort(sub)
		pick := rel.Pick(sub)
		want := oidsOf(pick.Row, BMOIndicesMode(p, pick, BNL, EvalInterpreted))
		check("whole relation", p, rel, sub, want, rel.Row)
		check("gathered", p, rel.Gather(sub), allIndices(len(sub)), want, pick.Row)
		if trial%8 != 0 {
			continue
		}
		st, err := relation.OpenStore(t.TempDir(), relation.StoreOptions{PageBytes: 1 << 10, PoolBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		mem, err := relation.ShardRelation(rel, 1, relation.ByHash("oid"))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := st.ImportTable(mem)
		if err != nil {
			t.Fatal(err)
		}
		paged := tbl.(*relation.Sharded).Shard(0)
		check("paged", p, paged, sub, want, paged.Row)
		check("paged gathered", p, paged.Gather(sub), allIndices(len(sub)), want, pick.Row)
		st.Close()
	}
	if groups[false] < 10 || groups[true] < 10 {
		t.Fatalf("the sum order stood on %d single-group and %d multi-group binds only", groups[false], groups[true])
	}
}

// TestFlatKernelSortedPassNamedCases: the instances a naive sorted pass
// gets wrong, each on both one-way comparators, and the window pass on
// records and on the score blocks over the same rows — with the window
// shapes the blocks must get right: an eviction that empties the first
// or the last block, one that empties the whole window, a window past 8,
// 16 and 24 lanes.
func TestFlatKernelSortedPassNamedCases(t *testing.T) {
	prev := AVX2Enabled()
	defer SetAVX2Enabled(prev)
	schema := relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
	)
	inf := math.Inf(-1)
	trade := pref.Pareto(pref.HIGHEST("a"), pref.HIGHEST("b"))
	antichain := func(k int) []relation.Row {
		rows := make([]relation.Row, k)
		for i := range rows {
			rows[i] = relation.Row{float64(i), float64(k - 1 - i)}
		}
		return rows
	}
	for _, c := range []struct {
		name   string
		p      pref.Preference
		rows   []relation.Row
		want   []int
		checks uint64 // pairs the blocks must hand to the record compare
	}{
		// (1e16, 1) and (1e16, 0) share a float sum; the dominated row comes
		// first in input order, and a sorted pass never evicts.
		{"sum-rounding twin", pref.Pareto(pref.HIGHEST("a"), pref.HIGHEST("b")),
			[]relation.Row{{1e16, 0.0}, {1e16, 1.0}}, []int{1}, 0},
		{"sum-rounding twin, inexact ties", pref.Pareto(pref.AROUND("a", 3e16), pref.HIGHEST("b")),
			[]relation.Row{{1e16, 0.0}, {1e16, 1.0}}, []int{1}, 1},
		// 4 and 6 tie AROUND 5 without being equal: better on everything
		// else is still not better.
		{"AROUND straddle", pref.Pareto(pref.AROUND("a", 5), pref.LOWEST("b")),
			[]relation.Row{{4.0, 1.0}, {6.0, 0.0}}, []int{0, 1}, 1},
		// NULL and −Inf both score −Inf under HIGHEST, two value classes.
		{"NULL beside -Inf", pref.Pareto(pref.HIGHEST("a"), pref.LOWEST("b")),
			[]relation.Row{{nil, 1.0}, {inf, 0.0}, {inf, 2.0}}, []int{0, 1}, 2},
		{"-Inf beside NULL", pref.Pareto(pref.HIGHEST("a"), pref.LOWEST("b")),
			[]relation.Row{{inf, 1.0}, {nil, 0.0}, {nil, 2.0}}, []int{0, 1}, 2},
		// A later group decides between rows equal on the whole head group,
		// and only between those.
		{"head group equal", pref.Prioritized(pref.Pareto(pref.AROUND("a", 5), pref.LOWEST("b")), pref.HIGHEST("a")),
			[]relation.Row{{4.0, 0.0}, {6.0, 0.0}, {4.0, 0.0}, {6.0, 1.0}}, []int{0, 1, 2}, 4},
		// Window shapes: an antichain of k rows (a + b = k − 1) fills k
		// lanes; a row after it beats the ones it is ≥ on.
		{"window past 8, 16 and 24 lanes", trade, antichain(30), allIndices(30), 0},
		{"eviction empties the first block", trade, append(antichain(16), relation.Row{7.0, 15.0}),
			allIndices(17)[8:], 0},
		{"eviction empties the last block", trade, append(antichain(16), relation.Row{15.0, 7.0}),
			append(allIndices(8), 16), 0},
		{"eviction empties the window", trade, append(antichain(30), relation.Row{30.0, 30.0}), []int{30}, 0},
	} {
		rel := relation.New("R", schema)
		rel.MustInsert(c.rows...)
		if want := BMOIndicesMode(c.p, rel, BNL, EvalInterpreted); !sameInts(want, c.want) {
			t.Fatalf("%s: test premise: the oracle returns %v", c.name, want)
		}
		cp, ok := pref.Compile(c.p, rel)
		if !ok || cp.Flat() == nil {
			t.Fatalf("%s must bind with a flat shape", c.name)
		}
		for _, avx2 := range []bool{false, AVX2Available()} {
			SetAVX2Enabled(avx2)
			f := newMaximaFilter(cp)
			stood := f.sumOrder(cp.Flat(), allIndices(rel.Len()))
			f.release()
			if !stood {
				t.Fatalf("%s: no NaN here, the sum order must stand", c.name)
			}
			checks := blockRechecks.Load()
			if got := sfsCompiled(cp, allIndices(rel.Len()), nil); !sameInts(got, c.want) {
				t.Fatalf("%s (avx2 %v): sorted pass returns %v, want %v", c.name, avx2, got, c.want)
			}
			if n := blockRechecks.Load() - checks; avx2 && n != c.checks {
				t.Errorf("%s: %d pairs re-checked on records, want %d", c.name, n, c.checks)
			}
			if got := windowOn(cp, avx2, allIndices(rel.Len())); !sameInts(got, c.want) {
				t.Fatalf("%s (avx2 %v): window pass returns %v, want %v", c.name, avx2, got, c.want)
			}
		}
	}
}

// windowOn runs the window pass over idx on the score blocks (blocks) or
// on records, whatever the head group's width.
func windowOn(c *pref.Compiled, blocks bool, idx []int) []int {
	if !blocks {
		return bnlFlat(c.Flat(), idx, nil)
	}
	f := newBlockFilter(c.Flat(), chainExact(c.Pref(), c.Flat()))
	defer f.release()
	return f.window(idx, nil)
}

// TestFlatKernelSortedPassNaNScores: a score can be NaN on a value that is
// not — a SCORE function undefined on part of its domain, an AROUND anchor
// that is NaN — and then two rows of that value are still equal on the
// dimension: the one tie scores cannot see. The sum order must stand down
// (lexicographic comparison is not an order across NaN), the pass hands
// over to the window pass on the comparator the plan names — what
// DominanceRuns counts is what EXPLAIN said — and a candidate with a NaN
// head score must be settled pair by pair rather than through the blocks,
// where every lane would die on it.
func TestFlatKernelSortedPassNaNScores(t *testing.T) {
	prev := AVX2Enabled()
	defer SetAVX2Enabled(prev)
	rng := rand.New(rand.NewSource(21))
	undefined := pref.SCORE("a", "undefined on odd", func(v pref.Value) float64 {
		if f, _ := pref.Numeric(v); int(f)%2 != 0 {
			return math.NaN()
		} else {
			return f
		}
	})
	schema := relation.MustSchema(
		relation.Column{Name: "a", Type: relation.Float},
		relation.Column{Name: "b", Type: relation.Float},
		relation.Column{Name: "c", Type: relation.Float},
	)
	for trial := 0; trial < 40; trial++ {
		rel := relation.New("R", schema)
		for i, n := 0, 50+rng.Intn(400); i < n; i++ {
			rel.MustInsert(relation.Row{float64(rng.Intn(8)), float64(rng.Intn(30)), float64(rng.Intn(30))})
		}
		for _, p := range []pref.Preference{
			pref.ParetoAll(undefined, pref.LOWEST("b"), pref.HIGHEST("c")),
			pref.Pareto(pref.AROUND("a", math.NaN()), pref.LOWEST("b")),
			pref.Prioritized(pref.Pareto(undefined, pref.LOWEST("b")), pref.HIGHEST("c")),
		} {
			want := BMOIndicesMode(p, rel, BNL, EvalInterpreted)
			c, ok := pref.Compile(p, rel)
			if !ok || c.Flat() == nil {
				t.Fatalf("%s must bind with a flat shape", p)
			}
			idx := allIndices(rel.Len())
			f := newMaximaFilter(c)
			stood := f.sumOrder(c.Flat(), idx)
			f.release()
			if stood {
				t.Fatalf("%s: NaN scores among the candidates, the sum order must stand down", p)
			}
			keys, _ := c.SortKeys()
			order := slices.Clone(idx)
			slices.SortFunc(order, func(a, b int) int { return cmpKeyColumns(keys, a, b) })
			for _, avx2 := range []bool{false, AVX2Available()} {
				SetAVX2Enabled(avx2)
				before := dominancePasses()
				if got := sfsCompiled(c, idx, nil); !sameInts(got, want) {
					t.Fatalf("trial %d %s (avx2 %v): sorted pass returns %v, want %v", trial, p, avx2, got, want)
				}
				var counted [3]uint64
				counted[dominanceOf(p, SFS)] = 1
				if ran := dominancePasses().since(before); ran != counted {
					t.Fatalf("trial %d %s (avx2 %v): passes per comparator (tree, flat, blocks) %v, want %v: the hand-over runs on the comparator the plan names", trial, p, avx2, ran, counted)
				}
				f := newMaximaFilter(c)
				got := sfsFilter(f, order, nil)
				f.release()
				if !sameInts(got, want) {
					t.Fatalf("trial %d %s (avx2 %v): one-way filter under the rank-key order returns %v, want %v", trial, p, avx2, got, want)
				}
			}
		}
	}
}

// TestFlatKernelRoutes: BMO sets through every route that compares on
// records — whole-relation and gathered binds under each algorithm, the
// exhaustive reference, partition workers, the progressive stream — equal
// the interpreted BNL oracle, and records or score blocks are what ran:
// never the tree for a fragment term, neither of them for a term outside
// it.
// TestGatheredBindAgreement covers the sharded, merged and paged routes
// the same way.
func TestFlatKernelRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 40; trial++ {
		rel := kernelTestRelation(rng, 200+rng.Intn(400))
		p := kernelTestTerm(rng)
		want := BMOIndicesMode(p, rel, BNL, EvalInterpreted)
		sub := allIndices(rel.Len())[:rel.Len()/5] // small enough to bind gathered
		wantSub := oidsOf(rel.Pick(sub).Row, BMOIndicesMode(p, rel.Pick(sub), BNL, EvalInterpreted))
		before := dominancePasses()
		for _, alg := range []Algorithm{Naive, BNL, SFS, Auto} {
			ResetCompileCache()
			if got := BMOIndicesMode(p, rel, alg, EvalCompiled); !sameInts(got, want) {
				t.Fatalf("trial %d %s alg %s:\n got %v\nwant %v", trial, p, alg, got, want)
			}
			ResetCompileCache()
			if got := oidsOf(rel.Row, BMOIndicesOn(p, rel, alg, sub)); !sameInts(got, wantSub) {
				t.Fatalf("trial %d %s alg %s gathered:\n got %v\nwant %v", trial, p, alg, got, wantSub)
			}
		}
		for _, alg := range []Algorithm{BNL, SFS} {
			if got := execute(alg, 3, p, rel, compileFor(p, rel, EvalAuto), allIndices(rel.Len()), nil); !sameInts(got, want) {
				t.Fatalf("trial %d %s: %s over 3 partition workers: got %v want %v", trial, p, alg, got, want)
			}
		}
		for _, idx := range [][]int{nil, sub} {
			got := EvalStreamCtx(context.Background(), p, rel, Auto, idx).Collect()
			slices.Sort(got)
			ref := want
			if idx != nil {
				ref = BMOIndicesOn(p, rel, BNL, sub)
			}
			if !sameInts(got, ref) {
				t.Fatalf("trial %d %s stream (subset=%v): got %v want %v", trial, p, idx != nil, got, ref)
			}
		}
		ran := dominancePasses().since(before)
		switch {
		case pref.FlatShaped(p):
			if ran[DominanceTree] != 0 {
				t.Fatalf("trial %d %s: a fragment term compared through the tree (%d passes)", trial, p, ran[DominanceTree])
			}
			if ran[DominanceFlat]+ran[DominanceBlocksAVX2] == 0 {
				t.Fatalf("trial %d %s: neither records nor blocks ran", trial, p)
			}
		default:
			if ran[DominanceFlat]+ran[DominanceBlocksAVX2] != 0 {
				t.Fatalf("trial %d %s: a term outside the fragment compared on records or blocks %v", trial, p, ran)
			}
			if ran[DominanceTree] == 0 {
				t.Fatalf("trial %d %s: the tree never ran", trial, p)
			}
		}
	}
	ResetCompileCache()
}

// TestFlatKernelMaskedSourceFallsBack: a generic pref.Source whose tuples
// may lack an attribute binds with a presence mask, carries no shape and
// evaluates through the tree — with the same result.
func TestFlatKernelMaskedSourceFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := pref.Prioritized(pref.Pareto(pref.LOWEST("a"), pref.AROUND("b", 3)), pref.HIGHEST("c"))
	tuples := make([]pref.Tuple, 80)
	for i := range tuples {
		m := pref.MapTuple{"a": float64(rng.Intn(6)), "c": float64(rng.Intn(6))}
		if rng.Intn(6) > 0 {
			m["b"] = float64(rng.Intn(6))
		}
		tuples[i] = m
	}
	var want []int
	for i, x := range tuples {
		maximal := true
		for _, y := range tuples {
			if p.Less(x, y) {
				maximal = false
				break
			}
		}
		if maximal {
			want = append(want, i)
		}
	}
	flat0, tree0 := fragmentRuns(), DominanceRuns(DominanceTree)
	got := EvalStreamTuples(p, tuples).Collect()
	slices.Sort(got)
	if !sameInts(got, want) {
		t.Fatalf("masked source: got %v want %v", got, want)
	}
	if fragmentRuns() != flat0 || DominanceRuns(DominanceTree) != tree0+1 {
		t.Fatalf("masked source: flat passes %d→%d, tree passes %d→%d; want the tree alone",
			flat0, fragmentRuns(), tree0, DominanceRuns(DominanceTree))
	}
	// The same tuples with b everywhere present run on records.
	for _, tu := range tuples {
		if m := tu.(pref.MapTuple); m["b"] == nil {
			m["b"] = 9.0
		}
	}
	EvalStreamTuples(p, tuples).Collect()
	if fragmentRuns() != flat0+1 {
		t.Fatal("fully present tuples must run on the flat kernel or the score blocks")
	}
}

// passCounts is a reading of DominanceRuns, indexed by Dominance.
type passCounts [3]uint64

// dominancePasses reads DominanceRuns for every comparator.
func dominancePasses() passCounts {
	return passCounts{DominanceRuns(DominanceTree), DominanceRuns(DominanceFlat), DominanceRuns(DominanceBlocksAVX2)}
}

// since is the passes that ran after the reading before.
func (c passCounts) since(before passCounts) (out [3]uint64) {
	for d := range c {
		out[d] = c[d] - before[d]
	}
	return out
}

// fragmentRuns counts the passes that compared on what a flat shape lowers
// to: row-major records, or (with the AVX2 kernel on) the blocked
// head-group scores.
func fragmentRuns() uint64 {
	return DominanceRuns(DominanceFlat) + DominanceRuns(DominanceBlocksAVX2)
}

// TestFlatKernelCancelAgreement: cancelled at a random moment — inside
// the up-front record gather of the exhaustive pass, or while a window or
// filter pass is staging and committing records — an evaluation yields
// the context's error or the complete result, never a torn one.
func TestFlatKernelCancelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rel := kernelTestRelation(rng, 6000)
	p := pref.Prioritized(pref.Pareto(pref.AROUND("x", 5), pref.LOWEST("z")), pref.HIGHEST("y"))
	if !pref.FlatShaped(p) {
		t.Fatal("test premise: a fragment term")
	}
	idx := allIndices(rel.Len())
	// A second term over columns without NaN: its sorted pass keeps the
	// score-sum order instead of handing over to the window pass, so the
	// key pass, the word sort and the one-way filter get cancelled too.
	sorted := pref.ParetoAll(pref.AROUND("y", 5), pref.LOWEST("z"), pref.HIGHEST("big"))
	cancelled := 0
	for _, term := range []pref.Preference{p, sorted} {
		want := BMOIndicesMode(term, rel, BNL, EvalInterpreted)
		for trial := 0; trial < 30; trial++ {
			alg := []Algorithm{Naive, BNL, SFS}[trial%3]
			ctx, cancel := ctxCancelledWithin(rng, 3*time.Millisecond)
			got, err := oneShardBMO(ctx, term, rel, alg, idx)
			cancel()
			if err != nil {
				cancelled++
				if !errors.Is(err, context.Canceled) || got != nil {
					t.Fatalf("%s trial %d alg %s: got %v err %v, want nil + context.Canceled", term, trial, alg, got, err)
				}
				continue
			}
			if !sameInts(got, want) {
				t.Fatalf("%s trial %d alg %s: torn result under cancellation", term, trial, alg)
			}
		}
	}
	if cancelled == 0 {
		t.Log("no trial was cancelled mid-run on this machine")
	}
	// Deterministically inside the gather: a canceller that fires on its
	// first poll aborts gatherFlat between columns.
	dying := &dyingContext{Context: context.Background(), done: make(chan struct{})}
	close(dying.done)
	c := compileFor(p, rel, EvalAuto)
	flat0 := DominanceRuns(DominanceFlat)
	got, err := runCancellable(dying, func(cc *canceller) []int { return naiveCompiled(c, idx, cc) })
	if !errors.Is(err, context.Canceled) || got != nil || DominanceRuns(DominanceFlat) != flat0+1 {
		t.Fatalf("gather under a dying context: got %v err %v, want nil + context.Canceled from inside the flat pass", got, err)
	}
	ResetCompileCache()
}

// kernelBenchShapes are the statement shapes of the served cold_skyline
// workload plus a four-dimensional chain product, over the anti-
// correlated d=4 table that workload reads.
var kernelBenchShapes = []struct {
	name string
	p    pref.Preference
}{
	{"pareto3", pref.ParetoAll(pref.AROUND("d1", 0.45), pref.AROUND("d2", 0.55), pref.LOWEST("d3"))},
	{"pareto-prior-chain", pref.Prioritized(pref.Pareto(pref.AROUND("d1", 0.45), pref.LOWEST("d2")), pref.LOWEST("d3"))},
	{"chain-prior-pareto", pref.Prioritized(pref.LOWEST("d3"), pref.Pareto(pref.AROUND("d1", 0.45), pref.LOWEST("d2")))},
	{"chain4", pref.ParetoAll(pref.LOWEST("d1"), pref.LOWEST("d2"), pref.LOWEST("d3"), pref.HIGHEST("d4"))},
}

// BenchmarkDominanceKernel prices one pass over a statement's candidates,
// bound gathered like the served path binds them: the ≈600 a cold_skyline
// statement's WHERE keeps for each of kernelBenchShapes, and the ≈2 350 of
// one shard a durable_paged reader's price cut keeps (Cars, two hash
// shards of 50 000, mileage AROUND m AND HIGHEST(horsepower)). Legs: the
// window pass (BNL) through the predicate tree, on flat records (record
// gather included) and on the AVX2 score blocks and their mirror, and the
// sorted pass (SFS: key pass, word sort, one-way filter) on flat records
// and on the blocks. pairs/op is the pass's (candidate, member) tests by
// the algorithm's definition, lanes/op what the blocks were offered. The
// planner's per-comparator prices (compiledPairCost, keyCmpCost,
// scoreSumCost) are calibrated from these rows.
func BenchmarkDominanceKernel(b *testing.B) {
	type bench struct {
		name string
		p    pref.Preference
		rel  *relation.Relation
		cand []int
	}
	var benches []bench
	pts := workload.Numeric(20000, 4, workload.AntiCorrelated, 20020820)
	var cut []int
	for i := 0; i < pts.Len(); i++ {
		if v, _ := pts.Tuple(i).Get("d4"); v.(float64) <= 0.03 {
			cut = append(cut, i)
		}
	}
	for _, shape := range kernelBenchShapes {
		benches = append(benches, bench{shape.name, shape.p, pts, cut})
	}
	cars, err := relation.ShardRelation(workload.Cars(50000, 20020820), 2, relation.ByHash("oid"))
	if err != nil {
		b.Fatal(err)
	}
	shard := cars.Shard(0)
	cut = nil
	for i := 0; i < shard.Len(); i++ {
		if v, _ := shard.Tuple(i).Get("price"); v.(int64) <= 9000 {
			cut = append(cut, i)
		}
	}
	benches = append(benches, bench{"durable-reader", pref.Pareto(pref.AROUND("mileage", 60000), pref.HIGHEST("horsepower")), shard, cut})
	for _, shape := range benches {
		c, ok := pref.Compile(shape.p, shape.rel.Gather(shape.cand))
		if !ok || c.Flat() == nil {
			b.Fatalf("%s must bind with a flat shape", shape.name)
		}
		slots := allIndices(len(shape.cand))
		maxima := len(bnlTree(c, slots, nil))
		// The window pass's pair count, by its definition.
		windowPairs := 0
		var window []int
		for _, i := range slots {
			keep, beaten := window[:0], false
			for _, w := range window {
				windowPairs++
				if beaten = c.Less(i, w); beaten {
					break
				}
				if !c.Less(w, i) {
					keep = append(keep, w)
				}
			}
			if !beaten {
				window = append(keep, i)
			}
		}
		report := func(b *testing.B, unit string, n int) {
			b.ReportMetric(float64(n), unit)
			b.ReportMetric(float64(len(shape.cand)), "candidates")
			b.ReportMetric(float64(maxima), "maxima")
		}
		b.Run(shape.name+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bnlTree(c, slots, nil)
			}
			report(b, "pairs/op", windowPairs)
		})
		b.Run(shape.name+"/window-flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bnlFlat(c.Flat(), slots, nil)
			}
			report(b, "pairs/op", windowPairs)
		})
		b.Run(shape.name+"/window-blocks", func(b *testing.B) {
			if !AVX2Available() {
				b.Skip("no AVX2 kernel in this build")
			}
			// Whatever the head group's width: the single-leaf head's row
			// prices what dominanceFor keeps it off the blocks for.
			exact := chainExact(c.Pref(), c.Flat())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := newBlockFilter(c.Flat(), exact)
				f.window(slots, nil)
				f.release()
			}
			report(b, "pairs/op", windowPairs)
		})
		for _, leg := range []Dominance{DominanceFlat, DominanceBlocksAVX2} {
			name := shape.name + "/sorted-flat"
			if leg == DominanceBlocksAVX2 {
				name = shape.name + "/sorted-blocks"
			}
			b.Run(name, func(b *testing.B) {
				if leg == DominanceBlocksAVX2 && !AVX2Available() {
					b.Skip("no AVX2 kernel in this build")
				}
				defer SetAVX2Enabled(SetAVX2Enabled(leg == DominanceBlocksAVX2))
				// The one-way pass's count: the lanes the blocks were
				// offered, or on records the pairs up to the first
				// confirmed maximum that beats the candidate.
				f := newMaximaFilter(c)
				if !f.sumOrder(c.Flat(), slots) {
					b.Fatal("the sum order must stand on this table")
				}
				unit, tests := "pairs/op", 0
				for _, i := range f.order {
					beaten := f.dominated(i)
					for _, m := range f.rows {
						if tests++; c.Less(i, m) {
							break
						}
					}
					if !beaten {
						f.confirm(i)
					}
				}
				if leg == DominanceBlocksAVX2 {
					unit, tests = "lanes/op", f.lanes
				}
				f.release()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sfsCompiled(c, slots, nil)
				}
				report(b, unit, tests)
			})
		}
	}
}
