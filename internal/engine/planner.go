package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/pref"
	"repro/internal/relation"
)

// Shape classifies the structure of a preference term for planning: the
// physical algorithms that apply depend on it, not on the input data.
type Shape int

// Preference shapes, from most to least exploitable.
const (
	// ShapeKeyed has a sort key compatible with P (Scorer leaves under
	// Pareto/prioritized accumulation, the SKYLINE OF chain products among
	// them): SFS applies.
	ShapeKeyed Shape = iota
	// ShapeGeneral is an arbitrary strict partial order: only the window
	// pass (BNL) applies.
	ShapeGeneral
)

// String renders the shape name.
func (s Shape) String() string {
	switch s {
	case ShapeKeyed:
		return "keyed"
	case ShapeGeneral:
		return "general"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// shapeOf classifies a preference term. Compiled evaluation widens the
// keyed fragment: level preferences (POS family) are weak orders whose
// negated level is a valid scalar sort key, so terms like POS & LOWEST
// classify keyed even though the interpreted keyColumns cannot key them
// (the interpreted sfs then simply falls back to BNL, which stays
// correct).
func shapeOf(p pref.Preference) Shape {
	if pref.CompiledKeyed(p) {
		return ShapeKeyed
	}
	if _, ok := keyColumns(p); ok {
		return ShapeKeyed
	}
	return ShapeGeneral
}

// Env configures planning. The zero value means "this machine, sampled
// statistics": a partitioned plan runs at most relation.Procs() workers,
// and statistics are computed from the relation over statsSample sampled
// rows.
type Env struct {
	// Stats overrides statistics collection (e.g. precomputed or synthetic
	// stats). Nil computes them from the relation on demand.
	Stats *relation.Stats
	// Mode restricts the evaluation paths the plan may assume; the zero
	// value (EvalAuto) costs compiled evaluation whenever the term is
	// compilable.
	Mode EvalMode
}

// statsSample bounds the rows sampled for distinct/correlation statistics
// when the environment supplies none.
const statsSample = 2048

// Candidate is one (algorithm, workers) pair the planner costed. Cost is in
// abstract comparison units; only relative magnitudes matter. A
// partitioned candidate's note is rendered by Plan.Explain.
type Candidate struct {
	Algorithm Algorithm
	Workers   int
	Cost      float64
	Note      string
}

// Plan is an explainable physical evaluation plan for one BMO query: the
// chosen algorithm with its degree of parallelism, the statistics and cost
// estimates that led to the choice, and the rejected candidates. Explain()
// renders the whole decision; evaluation plans the same way (Auto) and
// runs what it planned.
type Plan struct {
	Algorithm Algorithm
	Workers   int // ≥ 2 when the pass runs partitioned (partitionMaxima)
	Shape     Shape
	// Compiled reports the evaluation path the plan was costed for:
	// compiled columns when the term is structurally compilable and the
	// environment allows it. Execution re-checks by actually compiling;
	// in the rare case a structurally compilable term fails to bind (a
	// discrete layer past the ordinal-coding cap) it runs interpreted
	// despite the plan's assumption.
	Compiled bool
	// CacheHit reports whether a bound form of the term over the
	// relation's current version was already in the compile cache at plan
	// time — execution will reuse it instead of binding afresh.
	CacheHit bool
	// Bind is the bind scope the plan was costed for (meaningful when
	// Compiled): the cached whole-relation form, a cold whole-relation
	// bind, or a gathered bind over the Input candidates only.
	Bind BindScope
	// Dominance is the pairwise comparator the chosen algorithm runs
	// (meaningful when Compiled); see dominanceOf for the run-time
	// demotions a plan cannot foresee.
	Dominance  Dominance
	Input      int // candidate-set cardinality the plan was costed for
	EstResult  int // estimated BMO result size
	Candidates []Candidate
	Stats      *relation.Stats // nil when planning skipped stats (small inputs)

	// The figures the decision turned on, which Explain words as its
	// "because:" lines — only when something explains the plan.
	attrs       int       // the term's attributes
	head        int       // its head group's width in the flat fragment, 0 outside
	sorted      Dominance // the comparator of a sorted pass
	window      float64   // small flat input: the window pass's price …
	keyed       float64   // … against key + sort + filter
	leaves      int       // SFS key: score leaves,
	keyRows     int       // the rows their keys span,
	keyCost     float64   // and what deriving them costs
	partWorkers int       // workers a partitioned candidate runs (≥ 2 when costed)
	one, split  float64   // the cheapest candidate at one worker, partitioned
	procs       int       // relation.Procs() at plan time
}

// PlanWithInput plans σ[P](R′) for a candidate subset of R with the given
// cardinality (n = R.Len() plans the whole relation) — e.g. downstream of
// a hard selection whose selectivity is already known (EXPLAIN uses it so
// the inlined plan matches what BMOIndicesOn will actually decide for the
// filtered input). Statistics still sample R itself.
func PlanWithInput(p pref.Preference, r *relation.Relation, n int, env Env) *Plan {
	// The bind-scope probe runs only on this EXPLAIN-facing entry point:
	// execution plans with the scope it actually bound under (evalOn), so
	// it neither pays a second key render + lock nor misreads its own
	// just-populated entry as a pre-existing hit.
	pl := planCore(p, r, n, env, BindScopeOf(p, r, n))
	pl.CacheHit = pl.Compiled && pl.Bind == BindCached
	return pl
}

// Explain renders the plan decision for debugging, tests and the EXPLAIN
// front-ends.
func (pl *Plan) Explain() string {
	var b strings.Builder
	eval := "interpreted"
	if pl.Compiled {
		eval = "compiled cache=cold"
		switch pl.Bind {
		case BindCached:
			eval = "compiled cache=hit"
		case BindGathered:
			eval = "compiled bind=gathered"
		}
		eval += " dominance=" + pl.Dominance.String()
	}
	fmt.Fprintf(&b, "plan: n=%d shape=%s eval=%s est.result≈%d → %s", pl.Input, pl.Shape, eval, pl.EstResult, pl.Algorithm)
	if pl.Workers >= 2 {
		fmt.Fprintf(&b, " (%d workers)", pl.Workers)
	}
	b.WriteByte('\n')
	if pl.Stats != nil {
		fmt.Fprintf(&b, "stats: %s\n", pl.Stats)
	}
	if len(pl.Candidates) > 0 {
		b.WriteString("candidates:\n")
		for _, c := range pl.Candidates {
			name := passName(c.Algorithm, c.Workers)
			mark := " "
			if c.Algorithm == pl.Algorithm && c.Workers == pl.Workers {
				mark = "*"
			}
			fmt.Fprintf(&b, "  %s %-16s cost≈%.3g", mark, name, c.Cost)
			switch {
			case c.Note != "":
				fmt.Fprintf(&b, " — %s", c.Note)
			case c.Workers >= 2:
				fmt.Fprintf(&b, " — %d partitions of ≈%d rows, merge over ≈%d local maxima", c.Workers, pl.Input/c.Workers, c.Workers*pl.EstResult)
			}
			b.WriteByte('\n')
		}
	}
	for _, r := range pl.reasons() {
		fmt.Fprintf(&b, "because: %s\n", r)
	}
	return b.String()
}

// reasons words the figures behind the decision, one "because:" line each.
func (pl *Plan) reasons() []string {
	if pl.Input < smallInput {
		reason := "cost differences are noise, shape heuristic picks"
		if pl.Shape == ShapeKeyed && pl.Compiled && pl.head > 0 {
			reason = fmt.Sprintf("window pass ≈%.3g against key + sort + filter ≈%.3g on %s over an estimated %d maxima:",
				pl.window, pl.keyed, pl.sorted, pl.EstResult)
		}
		return []string{fmt.Sprintf("input below %d rows: %s %s", smallInput, reason, pl.Algorithm)}
	}
	out := []string{fmt.Sprintf("shape %s over %d attrs, estimated result ≈ %d of %d rows", pl.Shape, pl.attrs, pl.EstResult, pl.Input)}
	if pl.Compiled {
		window := dominanceFor(pl.head, BNL)
		out = append(out, fmt.Sprintf("compiled columnar evaluation: a window pair on %s costs ≈1/%.0f, a sorted-filter pair on %s ≈1/%.0f of an interpreted comparison",
			window, 1/compiledPairCost(window, true), pl.sorted, 1/compiledPairCost(pl.sorted, false)))
		if pl.Shape != ShapeGeneral {
			out = append(out, sfsKeyReason(pl.Bind, pl.head > 0, pl.leaves, pl.keyRows, pl.keyCost))
		}
	} else {
		out = append(out, "term outside the compilable fragment: interpreted interface evaluation")
	}
	if st := pl.Stats; st != nil && st.HasCorr {
		switch {
		case st.Corr < -0.1:
			out = append(out, fmt.Sprintf("anti-correlated input (corr=%+.2f) inflates the result estimate", st.Corr))
		case st.Corr > 0.1:
			out = append(out, fmt.Sprintf("correlated input (corr=%+.2f) shrinks the result estimate", st.Corr))
		}
	}
	switch {
	case pl.Workers >= 2:
		out = append(out, fmt.Sprintf("%d workers cost≈%.3g against %.3g for one (%d Ps, %d candidates/worker ≥ grain %d)",
			pl.Workers, pl.split, pl.one, pl.procs, pl.Input/pl.Workers, parallelGrain))
	case pl.partWorkers >= 2:
		out = append(out, fmt.Sprintf("one worker cost≈%.3g against %.3g for %d partitions with their merge and dispatch",
			pl.one, pl.split, pl.partWorkers))
	case pl.procs >= 2:
		out = append(out, fmt.Sprintf("%d candidates fill fewer than two partitions of grain %d", pl.Input, parallelGrain))
	}
	return out
}

// Pass renders the chosen pass the way EXPLAIN's step lines print it.
func (pl *Plan) Pass() string { return passName(pl.Algorithm, pl.Workers) }

// passName renders an (algorithm, workers) pair: the algorithm's name,
// with "×w" when w ≥ 2 workers partition the pass.
func passName(alg Algorithm, workers int) string {
	if workers >= 2 {
		return fmt.Sprintf("%s×%d", alg, workers)
	}
	return alg.String()
}

// smallInput is the cardinality below which plan choice is (nearly)
// immaterial — every algorithm finishes in microseconds: the planner skips
// statistics and takes the shape heuristic, which also keeps per-group
// planning in groupby queries cheap. A compiled flat term still gets the
// two-term comparison of its window and sorted passes (see planCore) — at
// a few hundred candidates a Pareto window is most of the statement — and,
// when they are candidates of a relation that is not itself small, reads
// the relation's cached statistics for it: the comparison turns on the
// result estimate, which without the measured correlation under-sizes an
// anti-correlated window several times over.
const smallInput = 256

// planCore plans evaluation of p over n candidate rows of r, bound under
// the given scope. It is the single decision point behind Auto and the
// EXPLAIN front-ends.
func planCore(p pref.Preference, r *relation.Relation, n int, env Env, scope BindScope) *Plan {
	shape := shapeOf(p)
	head := flatHead(p)
	flat := head > 0
	pl := &Plan{Shape: shape, Input: n, Workers: 1, Bind: scope,
		Compiled: env.Mode != EvalInterpreted && pref.Compilable(p),
		attrs:    len(p.Attrs()), head: head, sorted: dominanceFor(head, SFS), procs: relation.Procs()}
	small := n < smallInput
	// A compiled flat term sorts on a one-pass score sum, not on rank keys.
	sumKey := pl.Compiled && flat

	stats := env.Stats
	switch {
	case small && !(sumKey && r != nil && r.Len() >= smallInput && !r.Ephemeral()):
		// A small input plans without statistics — unless the comparison
		// of its two passes needs them and they are the cached analysis of
		// a relation large enough to have one: sampling a small or an
		// ephemeral relation (never cached) would cost more than
		// evaluating the input.
		stats = nil
	case stats == nil && r != nil:
		stats = cachedStats(r)
	}
	pl.Stats = stats
	s := estimateResult(p, n, stats)
	pl.EstResult = s

	fs := float64(s)
	fn := float64(n)

	// Costs are in units of one interpreted Preference.Less call; the
	// scale matters against the absolute parallel dispatch overhead below.
	// A window pass (BNL) settles a pair in both directions — two Less
	// calls through the interface path or the predicate tree, one
	// three-way compare on flat records — a sorted filter pass (SFS) asks
	// one direction, and sorting compares key columns, not rows.
	pairCost := func(alg Algorithm, window bool) float64 {
		if pl.Compiled {
			return compiledPairCost(dominanceFor(head, alg), window)
		}
		if window {
			return 2
		}
		return 1
	}
	sortScale := 1.0
	if pl.Compiled {
		sortScale = keyCmpCost
	}

	// What SFS sorts by. A compiled flat term sums its candidates' scores
	// in one pass, w columns over the n candidates, whatever the bind
	// scope. Everything else sorts by dense-rank keys, and deriving them
	// sorts every score leaf over the rows the bound form spans — not over
	// the candidates: a cold whole-relation bind ranks |R| rows per leaf
	// however few of them are candidates, a gathered (or interpreted)
	// evaluation ranks the n candidates, and a cached form's keys are
	// already there.
	leaves := float64(keyLeaves(p))
	keyRows := fn
	if pl.Compiled && !sumKey {
		switch scope {
		case BindCached:
			keyRows = 0
		case BindFull:
			if r != nil {
				keyRows = math.Max(fn, float64(r.Len()))
			}
		}
	}
	keyCost := leaves * keyRows * math.Log2(math.Max(keyRows, 2)) * sortScale
	if sumKey {
		keyCost = leaves * fn * scoreSumCost
	}
	pl.leaves, pl.keyRows, pl.keyCost = int(leaves), int(keyRows), keyCost

	// passCost prices one pass over n candidates, the keys aside: SFS's
	// are derived once per evaluation, whatever the partitioning.
	passCost := func(alg Algorithm, n float64) (float64, string) {
		if alg == BNL {
			return n * fs / 2 * pairCost(BNL, true), "window scan ∝ result size"
		}
		sortCost := n * math.Log2(math.Max(n, 2))
		note := "presort + filter pass"
		if presortedFor(p, stats) {
			sortCost = n
			note = "input already sorted by the key: presort degenerates to a verify pass"
		}
		return sortCost*sortScale + n*fs/4*pairCost(SFS, false), note
	}
	keysOf := func(alg Algorithm) float64 {
		if alg == SFS {
			return keyCost
		}
		return 0
	}

	if small {
		pl.Algorithm = BNL
		if shape == ShapeKeyed {
			pl.Algorithm = SFS
			if sumKey {
				// The one difference that is not noise at this size, and
				// priced from the input alone: a window of ≈ŝ records
				// scanned three-way against a key pass, a word sort and a
				// one-way filter.
				window, _ := passCost(BNL, fn)
				sorted, _ := passCost(SFS, fn)
				pl.window, pl.keyed = window, sorted+keyCost
				if window <= sorted+keyCost {
					pl.Algorithm = BNL
				}
			}
		}
		pl.Dominance = dominanceFor(head, pl.Algorithm)
		return pl
	}

	// The candidates: each pass that applies to the shape, at one worker
	// and — when the input fills two partitions of the grain — partitioned.
	algs := []Algorithm{BNL, SFS}
	if shape != ShapeKeyed {
		algs = algs[:1]
	}
	workers := planWorkers(n)
	cands := make([]Candidate, 0, 2*len(algs))
	for _, alg := range algs {
		c, note := passCost(alg, fn)
		cands = append(cands, Candidate{Algorithm: alg, Workers: 1, Cost: c + keysOf(alg), Note: note})
	}
	if workers >= 2 {
		pl.partWorkers = workers
		for _, alg := range algs {
			local, _ := passCost(alg, fn/float64(workers))
			merge, _ := passCost(alg, float64(workers)*fs)
			cands = append(cands, Candidate{
				Algorithm: alg, Workers: workers, Cost: local + merge + keysOf(alg) + 1500*float64(workers),
			})
		}
	}
	pl.Candidates = cands

	best := 0
	pl.one, pl.split = math.Inf(1), math.Inf(1)
	for i, c := range cands {
		if c.Cost < cands[best].Cost {
			best = i
		}
		if c.Workers == 1 {
			pl.one = min(pl.one, c.Cost)
		} else {
			pl.split = min(pl.split, c.Cost)
		}
	}
	pl.Algorithm = cands[best].Algorithm
	pl.Workers = cands[best].Workers
	pl.Dominance = dominanceFor(head, pl.Algorithm)
	return pl
}

// keyLeaves counts the score leaves whose dense-rank transforms make up
// the term's SFS sort key (one sort per leaf).
func keyLeaves(p pref.Preference) int {
	var parts []pref.Preference
	switch q := p.(type) {
	case *pref.PrioritizedPref:
		parts = []pref.Preference{q.Left(), q.Right()}
	case *pref.ParetoPref:
		parts = []pref.Preference{q.Left(), q.Right()}
	case *pref.ProductPref:
		parts = q.Parts()
	default:
		return 1
	}
	n := 0
	for _, part := range parts {
		n += keyLeaves(part)
	}
	return n
}

// sfsKeyReason words the SFS presort's key price for the plan's reason
// lines: one pass of score sums for a compiled flat term, else what the
// bind scope makes the dense-rank keys cost.
func sfsKeyReason(scope BindScope, sumKey bool, leaves, rows int, cost float64) string {
	switch {
	case sumKey:
		return fmt.Sprintf("SFS keys: one pass sums %d score column(s) over the %d candidates (n·w, cost≈%.3g), no rank transform", leaves, rows, cost)
	case scope == BindCached:
		return "SFS keys: cached with the bound form — presort pays only the candidate sort"
	case scope == BindGathered:
		return fmt.Sprintf("SFS keys: gathered bind ranks %d leaf vector(s) over the %d candidates only (m·log m, cost≈%.3g)", leaves, rows, cost)
	}
	return fmt.Sprintf("SFS keys: cold whole-relation bind ranks %d leaf vector(s) over all %d rows (|R|·log|R| per leaf, cost≈%.3g)", leaves, rows, cost)
}

// presortedFor reports whether the relation is already physically ordered
// by a single-attribute sort key compatible with p, making SFS's presort a
// linear verify pass.
func presortedFor(p pref.Preference, stats *relation.Stats) bool {
	if stats == nil {
		return false
	}
	switch q := p.(type) {
	case *pref.Lowest:
		// SFS visits best-first: lowest values first, i.e. ascending order.
		if c, ok := stats.Col(q.Attr()); ok {
			return c.SortedAsc
		}
	case *pref.Highest:
		if c, ok := stats.Col(q.Attr()); ok {
			return c.SortedDesc
		}
	}
	return false
}

// estimateResult estimates the BMO result cardinality. For d effective
// dimensions over n rows of independent data the classic estimate is
// (ln n)^(d-1)/(d-1)! [Buchta 1989]; measured correlation scales it —
// anti-correlated data inflates skylines, correlated data deflates them.
//
// A prioritized accumulation is not a skyline over all its attributes:
// Definition 9 is lexicographic, the head decides wherever it ranks and
// the tail only chooses among rows the head finds equal. Its result is
// the head's maxima, thinned by the tail inside each class of head ties —
// and those classes are single rows unless statistics say the head's
// attributes are low-cardinality.
func estimateResult(p pref.Preference, n int, stats *relation.Stats) int {
	if n <= 1 {
		return n
	}
	if q, ok := p.(*pref.PrioritizedPref); ok {
		head := estimateResult(q.Left(), n, stats)
		ties := headTies(q.Left(), n, stats)
		if ties <= 1 {
			return head
		}
		classes := max(head/ties, 1)
		return clampInt(classes*estimateResult(q.Right(), ties, stats), 1, n)
	}
	d := len(p.Attrs())
	// Constant columns contribute no trade-off; only the effective
	// (varying) dimensions of a chain product shape the skyline.
	effective, attr := 0, ""
	if chainProduct(p, func(dim pref.Scorer) {
		a := dim.Attrs()[0]
		if stats != nil {
			if c, ok := stats.Col(a); ok && c.Distinct <= 1 {
				return
			}
		}
		effective, attr = effective+1, a
	}) {
		if effective == 0 {
			// Every dimension constant: all tuples mutually indifferent,
			// everything is maximal.
			return n
		}
		if effective == 1 {
			// A single chain: one maximal value, duplicates of it survive.
			if stats != nil {
				if c, ok := stats.Col(attr); ok && c.Distinct > 0 {
					return clampInt(n/c.Distinct, 1, n)
				}
			}
			return 1
		}
		d = effective
	}
	if d <= 1 {
		// Non-chain single-attribute preference: assume one maximal class.
		if stats != nil && d == 1 {
			if c, ok := stats.Col(p.Attrs()[0]); ok && c.Distinct > 0 {
				return clampInt(n/c.Distinct, 1, n)
			}
		}
		return 1
	}
	logn := math.Log(float64(n))
	est := 1.0
	for k := 1; k < d; k++ {
		est *= logn / float64(k)
	}
	if stats != nil && stats.HasCorr {
		// exp(-2.5·corr·(d-1)): corr −0.5 on 3 dims ⇒ ×12, corr +0.8 on 2
		// dims ⇒ ×0.14. Crude, but it moves the estimate in the direction
		// and magnitude the [BKS01] measurements show.
		est *= math.Exp(-2.5 * stats.Corr * float64(d-1))
	}
	return clampInt(int(est), 1, n)
}

// headTies estimates how many of n rows share one projection onto the
// head's attributes: n over the product of their distinct counts, 1
// without statistics (or for an attribute they do not cover).
func headTies(head pref.Preference, n int, stats *relation.Stats) int {
	if stats == nil {
		return 1
	}
	ties := n
	for _, attr := range head.Attrs() {
		c, ok := stats.Col(attr)
		if !ok || c.Distinct <= 0 {
			return 1
		}
		ties /= c.Distinct
	}
	return max(ties, 1)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Per-comparator prices of the cost model, in units of one interpreted
// Preference.Less call (≈250 ns on a three-leaf term on the reference
// box), calibrated from BenchmarkDominanceKernel and
// BenchmarkSFSChainFilter by dividing each pass by the pairs it settles.
const (
	// treeLessCost is one pref.Compiled.Less through the predicate tree
	// (≈20 ns; 7–33 ns from a deciding PRIOR TO leaf to a four-leaf ⊗).
	treeLessCost = 1.0 / 12
	// flatPairCost is one flat-record test, three-way or one-directional
	// (≈7–14 ns whatever the term's width).
	flatPairCost = 1.0 / 25
	// avx2PairCost is one lane of the blocked AVX2 chain filter (≈1.1 ns).
	avx2PairCost = 1.0 / 200
	// avx2WindowPairCost is one pair of a window pass on the score blocks
	// and their mirror (≈5.4 ns: the window-blocks rows' ns/op summed over
	// their pairs/op, 4.4 ns a pair on pareto3 and chain4, whose windows
	// fill many blocks, to 9–12 ns on the PRIOR TO and durable shapes,
	// whose few rows cost a kernel call each).
	avx2WindowPairCost = 1.0 / 46
	// keyCmpCost is one comparison of a sort over key or score columns:
	// the SFS presort (≈6.5 ns) and the dense-rank transforms behind the
	// keys (≈12 ns).
	keyCmpCost = 1.0 / 25
	// scoreSumCost is one score read and add of a flat term's one-pass
	// sort key (≈1 ns: a sequential column read, no compare).
	scoreSumCost = 1.0 / 250
)

// compiledPairCost prices one pair test of a compiled pass on comparator
// d: a window pass through the predicate tree asks Less in both
// directions, a window pass on the blocks pays a kernel call per
// candidate and a second sweep per survivor, every other combination
// settles the pair with one call.
func compiledPairCost(d Dominance, window bool) float64 {
	switch {
	case d == DominanceFlat:
		return flatPairCost
	case d == DominanceBlocksAVX2 && window:
		return avx2WindowPairCost
	case d == DominanceBlocksAVX2:
		return avx2PairCost
	}
	if window {
		return 2 * treeLessCost
	}
	return treeLessCost
}

// execute runs one (algorithm, workers) choice over a candidate set: two
// or more workers partition the candidates (partitionMaxima), fewer run
// one pass. alg is resolved — Auto never reaches here.
func execute(alg Algorithm, workers int, p pref.Preference, r *relation.Relation, c *pref.Compiled, idx []int, cc *canceller) []int {
	if workers < 2 {
		return runPass(alg, p, r, c, idx, cc)
	}
	return partitionMaxima(idx, workers, cc, func(part []int, cc *canceller) []int {
		return runPass(alg, p, r, c, part, cc)
	})
}

// runPass runs one pass of alg over a candidate set, through the compiled
// twin when a compiled form is supplied. The decomposition evaluator
// always takes the interface path: it recurses over sub-terms, which keep
// the old route.
func runPass(alg Algorithm, p pref.Preference, r *relation.Relation, c *pref.Compiled, idx []int, cc *canceller) []int {
	switch alg {
	case Naive:
		if c != nil {
			return naiveCompiled(c, idx, cc)
		}
		return naive(p, r, idx, cc)
	case SFS:
		if c != nil {
			return sfsCompiled(c, idx, cc)
		}
		return sfs(p, r, idx, cc)
	case Decomposition:
		return decomposedCC(p, r, idx, cc)
	}
	if c != nil {
		return bnlCompiled(c, idx, cc)
	}
	return bnl(p, r, idx, cc)
}
