package psql

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
)

// Explain renders the evaluation plan of a query without running it: the
// pipeline of operators, the preference term each soft step evaluates
// (before and after algebraic simplification), and the physical algorithm
// the engine would select. This is the observable face of the paper's §7
// "preference query optimizer" roadmap item.
//
// A flat table is explained as what it runs as — one shard — and a step
// over one shard has no fan-out to report: its merge returns the part.
// Over several shards every phase carries its fan-out facts ("shards=N,
// merge=fold dominance=<comparator>") and each bind and cache status
// counts the shards it holds for. Each step reports its evaluation path:
//
//   - the hard selection line shows the access path (an ordered read of
//     a value order, "vectorized" — every WHERE leaf bound to column
//     vectors or equality codes — or "row-fallback") and the exact
//     selectivity. The WHERE clause binds at explain time to report both;
//   - BMO steps show "compiled evaluation" when the (simplified) term is
//     inside the compilable constructor fragment, "interpreted" when it
//     will take the tuple-at-a-time interface path, and a bind line
//     naming the bind scope execution will pick (engine.BindScopeOf):
//     "bind: gathered m of n rows" (over the candidates only) or "bind:
//     full over n rows" (the whole relation). Preference terms do not
//     bind at explain time;
//   - with engine.Auto, the cost-based plan is inlined underneath
//     (engine.ShardPlan.Explain, or its per-shard Plan on one shard),
//     carrying the same facts as "eval=compiled|interpreted" and
//     "bind=full|gathered".
func Explain(q *Query, cat Catalog, opts Options) (string, error) {
	s, err := cat.lookup(q.From)
	if err != nil {
		return "", err
	}
	tm := buildTerms(q)
	if err := checkAttrs(q, s, tm); err != nil {
		return "", err
	}
	var b strings.Builder
	step := 0
	emit := func(format string, args ...any) {
		step++
		fmt.Fprintf(&b, "%2d. %s\n", step, fmt.Sprintf(format, args...))
	}
	nShards := s.NumShards()
	fanned := nShards > 1
	// The fan-out wording, empty on one shard.
	var perShard, allShards, fan string
	if fanned {
		perShard, allShards = " per shard", " on all shards"
		fan = fmt.Sprintf("; shards=%d", nShards)
		emit("scan %s (sharded: %d shards by %s, %d rows)", q.From, nShards, s.Part(), s.Len())
	} else {
		emit("scan %s (%d rows)", q.From, s.Len())
	}
	onShards := func(k int) string {
		if !fanned {
			return ""
		}
		return fmt.Sprintf(" on %d/%d shards", k, nShards)
	}
	facts := func(p pref.Preference) string {
		if !fanned {
			return ""
		}
		return fmt.Sprintf("; shards=%d, merge=fold dominance=%s", nShards, engine.ShardMergeMode(p))
	}
	if opts.Robust != (engine.Robust{}) {
		// Non-default fault tolerance is part of the plan: it changes what
		// a shard failure does to the result.
		note := fmt.Sprintf("fault policy: %s", opts.Robust.Policy)
		if opts.Robust.Policy == relation.PolicyPartial {
			note += " — merge responsive shards, report missing set"
		}
		if opts.Robust.ShardTimeout > 0 {
			note += fmt.Sprintf("; per-shard timeout %v", opts.Robust.ShardTimeout)
		}
		fmt.Fprintf(&b, "    (%s)\n", note)
	}
	n := s.Len()
	var sets engine.ShardSets
	if q.Where != nil {
		// The WHERE clause binds at explain time, so EXPLAIN can report
		// true selectivity and the access path. The bind is a probe: it
		// reports the path the statement's run will take and leaves the
		// shards' value orders as they were. Each shard picks its own (an
		// ordered read or a scan): shards that differ are named with their
		// counts.
		count := 0
		var modes []string
		perMode := map[string]int{}
		sets = make(engine.ShardSets, nShards)
		for i, sh := range s.Shards() {
			sel := filter.Probe(q.Where, sh)
			sets[i] = sel.Indices()
			count += sel.Count()
			if perMode[sel.Mode()]++; perMode[sel.Mode()] == 1 {
				modes = append(modes, sel.Mode())
			}
		}
		mode := modes[0]
		if len(modes) > 1 {
			for k, m := range modes {
				modes[k] = m + onShards(perMode[m])
			}
			mode = strings.Join(modes, ", ")
		}
		emit("hard selection: %s [%s, %d of %d rows%s]", q.Where, mode, count, s.Len(), fan)
		n = count
	}
	// est is the estimated per-shard input of the next soft step: the
	// WHERE-selected candidates, then what a planned step is estimated to
	// keep.
	est := n / nShards
	// bindLine reports the per-shard bind scopes of a step over the
	// WHERE-selected candidates (grouped steps share one whole-shard form
	// across their groups, so they never gather).
	bindLine := func(grouped bool) {
		var gathered, full, gm, gn, fn int
		for i, sh := range s.Shards() {
			m := sh.Len()
			if sets != nil && !grouped {
				m = len(sets[i])
			}
			if engine.BindScopeOf(sh, m) == engine.BindGathered {
				gathered++
				gm += m
				gn += sh.Len()
			} else {
				full++
				fn += sh.Len()
			}
		}
		var binds []string
		if gathered > 0 {
			binds = append(binds, fmt.Sprintf("gathered %d of %d rows%s", gm, gn, onShards(gathered)))
		}
		if full > 0 {
			binds = append(binds, fmt.Sprintf("full over %d rows%s", fn, onShards(full)))
		}
		fmt.Fprintf(&b, "    (bind: %s)\n", strings.Join(binds, ", "))
	}
	// inlinePlan renders the cost-based decision indented under its step.
	inlinePlan := func(sp *engine.ShardPlan) {
		text := sp.Explain()
		if !fanned {
			text = sp.PerShard.Explain()
		}
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			fmt.Fprintf(&b, "      %s\n", line)
		}
	}
	if q.Preferring != nil {
		p, err := tm.preferring.p, tm.preferring.err
		if err != nil {
			return "", err
		}
		simplified := algebra.Simplify(p)
		resolved, pass := opts.Algorithm, opts.Algorithm.String()
		var plan *engine.ShardPlan
		if resolved == engine.Auto {
			// Planned at the post-WHERE cardinality, matching the decision
			// execution makes per shard.
			plan = engine.PlanShardedOn(simplified, s, sets, engine.Env{})
			resolved, pass = plan.PerShard.Algorithm, plan.PerShard.Algorithm.String()
			if len(q.GroupingBy) == 0 {
				est = plan.PerShard.EstResult
			}
		}
		if _, isScorer := p.(pref.Scorer); isScorer && q.Top > 0 {
			scoring := "interpreted"
			if pref.Compilable(p) {
				scoring = "compiled"
			}
			merge := ""
			if fanned {
				merge = fmt.Sprintf(" per shard; shards=%d, merge=top-k heap", nShards)
			}
			emit("ranked query model (k-best): TOP %d by combined score of %s [%s scoring%s]", q.Top, p, scoring, merge)
			emitProjection(&b, &step, q)
			return b.String(), nil
		}
		if len(q.GroupingBy) > 0 {
			dict := ""
			if fanned {
				dict = " via shard-merge dictionary"
			}
			emit("BMO σ[P groupby {%s}], P = %s [algorithm %s per group%s, %s evaluation%s%s]",
				strings.Join(q.GroupingBy, ", "), simplified, pass, perShard, evalModeOf(simplified, resolved), facts(simplified), dict)
		} else {
			emit("BMO σ[P], P = %s [algorithm %s%s, %s evaluation%s]",
				simplified, pass, perShard, evalModeOf(simplified, resolved), facts(simplified))
		}
		if simplified.String() != p.String() {
			fmt.Fprintf(&b, "    (simplified from %s by the preference algebra)\n", p)
		}
		if evalModeOf(simplified, resolved) == "compiled" {
			bindLine(len(q.GroupingBy) > 0)
		}
		if len(q.GroupingBy) == 0 {
			// The first soft step over whole shards is the one shape the
			// result cache serves (per shard; the cross-shard merge
			// recomputes on every execution); WHERE-scoped, grouped and
			// ranked steps always evaluate.
			if cached, ok := engine.ResultCachedShards(simplified, s, q.Where); !ok {
				why := "term not keyable"
				if q.Where != nil {
					why = "WHERE-scoped, never cached"
				}
				fmt.Fprintf(&b, "    (result cache: bypass — %s)\n", why)
			} else if cached == nShards {
				served := "no evaluation"
				if fanned {
					served = "merge only"
				}
				fmt.Fprintf(&b, "    (result cache: hit%s — memoized maxima served, %s)\n", allShards, served)
			} else {
				fmt.Fprintf(&b, "    (result cache: cold%s — maxima stored at first execution)\n", onShards(nShards-cached))
			}
		}
		if streamShape(q) {
			fmt.Fprintf(&b, "    (streaming: %s)\n", streamModeOf(simplified, q.Where != nil, nShards))
		}
		if plan != nil {
			inlinePlan(plan)
		}
	}
	for _, c := range tm.cascades {
		p, err := c.p, c.err
		if err != nil {
			return "", err
		}
		simplified := algebra.Simplify(p)
		pass := opts.Algorithm.String()
		if opts.Algorithm == engine.Auto {
			// Each cascade step runs over what the step before it kept.
			pl := engine.ResolveAuto(simplified, est)
			pass, est = pl.Algorithm.String(), pl.EstResult
		}
		emit("cascade BMO σ[P], P = %s [algorithm %s%s%s]", simplified, pass, perShard, facts(simplified))
	}
	if q.ButOnly != nil {
		// The tree runs vectorized, gathered or over the whole relation
		// by the surviving candidate count — a runtime quantity
		// (post-BMO), so the plan reports the dispatch as adaptive.
		// Mirror execSharded's fusion rule: the threshold scan rides the
		// fan-out of the last soft pass when one precedes it.
		placement := "separate scan"
		if len(q.Cascades) > 0 || (q.Preferring != nil && len(q.GroupingBy) == 0) {
			placement = "fused into the BMO pass"
		}
		emit("quality filter BUT ONLY %s [compiled vector scan (adaptive)%s; %s%s]", q.ButOnly, perShard, placement, fan)
	}
	if q.Skyline != nil {
		p, err := q.Skyline.Preference()
		if err != nil {
			return "", err
		}
		resolved, pass := opts.Algorithm, opts.Algorithm.String()
		var plan *engine.ShardPlan
		if resolved == engine.Auto {
			// Planned at the post-WHERE cardinality; downstream of a
			// PREFERRING step the true input cardinality is unknown at
			// explain time (the plan is only inlined when the skyline is
			// the sole soft step).
			plan = engine.PlanShardedOn(p, s, sets, engine.Env{})
			resolved, pass = plan.PerShard.Algorithm, plan.PerShard.Algorithm.String()
		}
		emit("%s ⇒ BMO σ[P], P = %s [algorithm %s%s, %s evaluation%s]",
			q.Skyline, p, pass, perShard, evalModeOf(p, resolved), facts(p))
		if plan != nil && q.Preferring == nil {
			inlinePlan(plan)
		}
		if q.Preferring == nil && streamShape(q) {
			fmt.Fprintf(&b, "    (streaming: %s)\n", streamModeOf(p, q.Where != nil, nShards))
		}
	}
	if len(q.OrderBy) > 0 {
		parts := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			parts[i] = o.Attr
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		emit("sort by %s", strings.Join(parts, ", "))
	}
	if q.Top > 0 {
		emit("truncate to TOP %d", q.Top)
	}
	emitProjection(&b, &step, q)
	return b.String(), nil
}

// evalModeOf names the evaluation path the engine will take for the term
// under the resolved algorithm: compiled columnar for the library's
// constructor fragment, interpreted tuple-at-a-time otherwise. The
// decomposition evaluator compiles per sub-term inside its recursion
// (each Prop 8–12 leaf binds independently), so it reports "compiled
// (sub-terms)" — and the whole-term bind line does not apply to it. (A
// structurally compilable term can still fall back at
// bind time when a discrete layer exceeds the ordinal-coding cap; that
// rare case is not visible at explain time.)
func evalModeOf(p pref.Preference, alg engine.Algorithm) string {
	if !pref.Compilable(p) {
		return "interpreted"
	}
	if alg == engine.Decomposition {
		return "compiled (sub-terms)"
	}
	return "compiled"
}

// streamModeOf names the delivery mode ExecStream will use for the term
// over a table of the given shard count (streamShape in stream.go decides
// whether the note applies at all). One shard streams like a flat
// relation: progressive confirmation in sort-key order (over the compiled
// key vectors or the interpreted key derivation) or one batch computation
// replayed. Several shards confirm progressively in cross-shard raw
// coordinate order for compilable chain products only. hasWhere selects
// the index-chained wording — without a WHERE clause the stream visits
// every row and no index list exists.
func streamModeOf(p pref.Preference, hasWhere bool, shards int) string {
	switch {
	case shards > 1 && !engine.StreamShardedKeyed(p):
		return "batch fallback — term outside the cross-shard chain fragment"
	case shards > 1 && hasWhere:
		return "progressive — cross-shard raw coordinate order over the per-shard WHERE index lists"
	case shards > 1:
		return "progressive — cross-shard raw coordinate order"
	case !engine.StreamKeyed(p):
		return "batch fallback — no compatible sort key"
	case !pref.Compilable(p):
		return "progressive — interpreted keys"
	case hasWhere:
		return "progressive — compiled keys over the WHERE index list"
	}
	return "progressive — compiled keys"
}

// emitProjection appends the projection/distinct steps.
func emitProjection(b *strings.Builder, step *int, q *Query) {
	emit := func(format string, args ...any) {
		*step++
		fmt.Fprintf(b, "%2d. %s\n", *step, fmt.Sprintf(format, args...))
	}
	if len(q.Select) > 0 {
		emit("project %s", strings.Join(q.Select, ", "))
	} else {
		emit("project *")
	}
	if q.Distinct {
		emit("distinct")
	}
}

// ExplainQuery parses and explains a statement in one call.
func ExplainQuery(query string, cat Catalog, opts Options) (string, error) {
	q, err := Parse(query)
	if err != nil {
		return "", err
	}
	return Explain(q, cat, opts)
}

// explainRelation packages plan text as a one-column relation so EXPLAIN
// statements flow through the normal Run result channel.
func explainRelation(text string) *relation.Relation {
	rel := relation.New("plan", relation.MustSchema(relation.Column{Name: "plan", Type: relation.String}))
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rel.MustInsert(relation.Row{line})
	}
	return rel
}
