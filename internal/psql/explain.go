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
// Each step reports its evaluation path and cache status:
//
//   - the hard selection line shows the binding mode
//     ("vectorized" — every WHERE leaf bound to column vectors or
//     equality codes — or "row-fallback"), the exact selectivity, and
//     the selection-cache status. The WHERE clause binds at explain time:
//     the resulting bitmap is cached and reused by the next execution,
//     so a first EXPLAIN reports "miss — now bound and cached" and any
//     repeat reports "hit";
//   - BMO steps show "compiled evaluation" when the (simplified) term is
//     inside the compilable constructor fragment, "interpreted" when it
//     will take the tuple-at-a-time interface path, and a compile line
//     naming the bind scope execution will pick (engine.BindScopeOf):
//     "bind: cached" (compile cache hit), "bind: full (cold)" (binds the
//     whole relation at first execution, then cached) or "bind: gathered
//     m of n rows" (a one-shot bind over the candidates only, which
//     bypasses the cache — a repeat reports the same). Preference terms
//     do not bind at explain time;
//   - with engine.Auto, the cost-based plan is inlined underneath
//     (engine.Plan.Explain), carrying the same facts as
//     "eval=compiled|interpreted" and "cache=hit|cold".
func Explain(q *Query, cat Catalog, opts Options) (string, error) {
	tbl, ok := cat[q.From]
	if !ok {
		return "", fmt.Errorf("psql: unknown relation %q", q.From)
	}
	tm := buildTerms(q)
	if err := checkAttrs(q, tbl, tm); err != nil {
		return "", err
	}
	if sh, sharded := tbl.(*relation.Sharded); sharded {
		return explainSharded(q, sh, tm, opts)
	}
	rel, ok := tbl.(*relation.Relation)
	if !ok {
		return "", fmt.Errorf("psql: relation %q has unsupported storage %T", q.From, tbl)
	}
	var b strings.Builder
	step := 0
	emit := func(format string, args ...any) {
		step++
		fmt.Fprintf(&b, "%2d. %s\n", step, fmt.Sprintf(format, args...))
	}
	emit("scan %s (%d rows)", q.From, rel.Len())
	n := rel.Len()
	if q.Where != nil {
		// The WHERE clause binds (through the selection cache) at explain
		// time: the bitmap is exactly what execution will reuse, so EXPLAIN
		// can report true selectivity, the binding mode and cache status.
		hit := filter.CacheContains(q.Where, rel)
		sel := filter.CompileCached(q.Where, rel)
		status := "miss — now bound and cached"
		if hit {
			status = "hit"
		}
		emit("hard selection: %s [%s, %d of %d rows; selection cache %s]",
			q.Where, sel.Mode(), sel.Count(), rel.Len(), status)
		n = sel.Count()
	}
	if q.Preferring != nil {
		p, err := tm.preferring.p, tm.preferring.err
		if err != nil {
			return "", err
		}
		simplified := algebra.Simplify(p)
		alg := opts.Algorithm
		resolved := alg
		var plan *engine.Plan
		if alg == engine.Auto {
			// Planned at the post-WHERE cardinality (n), matching the
			// decision BMOIndicesOn makes at execution time.
			plan = engine.PlanWithInput(simplified, rel, n, engine.Env{})
			resolved = plan.Algorithm
		}
		if _, isScorer := p.(pref.Scorer); isScorer && q.Top > 0 {
			scoring := "interpreted"
			if pref.Compilable(p) {
				scoring = "compiled"
			}
			emit("ranked query model (k-best): TOP %d by combined score of %s [%s scoring]", q.Top, p, scoring)
			emitProjection(&b, &step, q)
			return b.String(), nil
		}
		if len(q.GroupingBy) > 0 {
			emit("BMO σ[P groupby {%s}], P = %s [algorithm %s per group, %s evaluation]",
				strings.Join(q.GroupingBy, ", "), simplified, resolved, evalModeOf(simplified, resolved))
		} else {
			emit("BMO σ[P], P = %s [algorithm %s, %s evaluation]", simplified, resolved, evalModeOf(simplified, resolved))
		}
		if simplified.String() != p.String() {
			fmt.Fprintf(&b, "    (simplified from %s by the preference algebra)\n", p)
		}
		if evalModeOf(simplified, resolved) == "compiled" {
			// Execution evaluates the simplified term, so the cache probe
			// uses it too. Grouped evaluation partitions the candidate set
			// by equality codes and evaluates index slices over the base
			// relation, so it shares the same cache entry as a plain BMO
			// step — filtered or not. EXPLAIN does not bind preference
			// terms itself (unlike the WHERE clause, a bind is not free),
			// so a cold cache stays cold until the first execution.
			m := n
			if len(q.GroupingBy) > 0 {
				// One whole-relation form serves every group.
				m = rel.Len()
			}
			fmt.Fprintf(&b, "    (compile cache: %s)\n", bindStatus(simplified, rel, m))
		}
		if len(q.GroupingBy) == 0 {
			// The first soft step is the one shape the result cache serves
			// (see execFlat); grouped and ranked steps always evaluate.
			switch engine.ResultCacheState(simplified, rel, q.Where) {
			case "hit":
				fmt.Fprintf(&b, "    (result cache: hit — memoized maxima served, no evaluation)\n")
			case "cold":
				fmt.Fprintf(&b, "    (result cache: cold — maxima stored at first execution)\n")
			default:
				fmt.Fprintf(&b, "    (result cache: bypass — term or WHERE not keyable)\n")
			}
		}
		if streamShape(q) {
			fmt.Fprintf(&b, "    (streaming: %s)\n", streamModeOf(simplified, q.Where != nil))
		}
		if plan != nil {
			// The cost-based decision, indented under the BMO step.
			for _, line := range strings.Split(strings.TrimRight(plan.Explain(), "\n"), "\n") {
				fmt.Fprintf(&b, "      %s\n", line)
			}
		}
	}
	for _, c := range tm.cascades {
		p, err := c.p, c.err
		if err != nil {
			return "", err
		}
		simplified := algebra.Simplify(p)
		resolved := opts.Algorithm
		if resolved == engine.Auto {
			resolved = engine.ResolveAuto(simplified, n)
		}
		emit("cascade BMO σ[P], P = %s [algorithm %s]", simplified, resolved)
	}
	if q.ButOnly != nil {
		// Built-in trees run vectorized when the surviving candidate set
		// warrants a bind or the vectors are already cached; the surviving
		// count is a runtime quantity (post-BMO), so a cold plan reports
		// the dispatch as adaptive.
		mode := "interpreted"
		if butCompilable(q.ButOnly) {
			if butBound(q.ButOnly, collectBasePrefs(tm), rel) {
				mode = "compiled vector scan (vectors cached)"
			} else {
				mode = "compiled vector scan (adaptive)"
			}
		}
		emit("quality filter BUT ONLY %s [%s]", q.ButOnly, mode)
	}
	if q.Skyline != nil {
		p, err := q.Skyline.Preference()
		if err != nil {
			return "", err
		}
		resolved := opts.Algorithm
		var plan *engine.Plan
		if resolved == engine.Auto {
			// Planned at the post-WHERE cardinality; downstream of a
			// PREFERRING step the true input cardinality is unknown at
			// explain time (the plan is only inlined when the skyline is
			// the sole soft step).
			plan = engine.PlanWithInput(p, rel, n, engine.Env{})
			resolved = plan.Algorithm
		}
		emit("%s ⇒ BMO σ[P], P = %s [algorithm %s, %s evaluation]", q.Skyline, p, resolved, evalModeOf(p, resolved))
		if plan != nil && q.Preferring == nil {
			for _, line := range strings.Split(strings.TrimRight(plan.Explain(), "\n"), "\n") {
				fmt.Fprintf(&b, "      %s\n", line)
			}
		}
		if q.Preferring == nil && streamShape(q) {
			fmt.Fprintf(&b, "    (streaming: %s)\n", streamModeOf(p, q.Where != nil))
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

// explainSharded renders the plan of a query over a sharded table: the
// same pipeline as the flat Explain with every phase carrying its shard
// fan-out facts — "shards=N, merge=fold dominance=<comparator>" — plus
// per-shard cache status. The WHERE clause binds per shard at explain
// time (the bitmaps
// are exactly what execution reuses), preference terms do not bind, so
// their compile-cache status counts shards with a live bound form.
func explainSharded(q *Query, s *relation.Sharded, tm terms, opts Options) (string, error) {
	var b strings.Builder
	step := 0
	emit := func(format string, args ...any) {
		step++
		fmt.Fprintf(&b, "%2d. %s\n", step, fmt.Sprintf(format, args...))
	}
	nShards := s.NumShards()
	emit("scan %s (sharded: %d shards by %s, %d rows)", q.From, nShards, s.Part(), s.Len())
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
		hits, count := 0, 0
		mode := ""
		sets = make(engine.ShardSets, nShards)
		for i, sh := range s.Shards() {
			if filter.CacheContains(q.Where, sh) {
				hits++
			}
			sel := filter.CompileCached(q.Where, sh)
			sets[i] = sel.Indices()
			count += sel.Count()
			if i == 0 {
				mode = sel.Mode()
			}
		}
		status := fmt.Sprintf("miss on %d/%d shards — now bound and cached", nShards-hits, nShards)
		if hits == nShards {
			status = "hit on all shards"
		}
		emit("hard selection: %s [%s, %d of %d rows; shards=%d, selection cache %s]",
			q.Where, mode, count, s.Len(), nShards, status)
		n = count
	}
	shardFacts := func(p pref.Preference) string {
		return fmt.Sprintf("shards=%d, merge=fold dominance=%s", nShards, engine.ShardMergeMode(p))
	}
	// cacheLine reports the per-shard bind scopes of a step over the
	// WHERE-selected candidates (grouped steps share one whole-shard form
	// across their groups, so they never gather).
	cacheLine := func(p pref.Preference, grouped bool) {
		var cached, gathered, full, gm, gn int
		for i, sh := range s.Shards() {
			m := sh.Len()
			if sets != nil && !grouped {
				m = len(sets[i])
			}
			switch engine.BindScopeOf(p, sh, m) {
			case engine.BindCached:
				cached++
			case engine.BindGathered:
				gathered++
				gm += m
				gn += sh.Len()
			default:
				full++
			}
		}
		if cached == nShards {
			fmt.Fprintf(&b, "    (compile cache: hit on all shards — bound forms reused; bind: cached)\n")
			return
		}
		status := fmt.Sprintf("cold on %d/%d shards — binds at first execution", full, nShards)
		if full == 0 {
			status = fmt.Sprintf("bypass on %d/%d shards — one-shot binds, nothing cached", gathered, nShards)
		}
		var binds []string
		if gathered > 0 {
			binds = append(binds, fmt.Sprintf("gathered %d of %d rows on %d/%d shards", gm, gn, gathered, nShards))
		}
		if full > 0 {
			binds = append(binds, fmt.Sprintf("full (cold) on %d/%d shards", full, nShards))
		}
		if cached > 0 {
			binds = append(binds, fmt.Sprintf("cached on %d/%d shards", cached, nShards))
		}
		fmt.Fprintf(&b, "    (compile cache: %s; bind: %s)\n", status, strings.Join(binds, ", "))
	}
	inlinePlan := func(p pref.Preference) {
		sp := engine.PlanShardedOn(p, s, sets, engine.Env{})
		for _, line := range strings.Split(strings.TrimRight(sp.Explain(), "\n"), "\n") {
			fmt.Fprintf(&b, "      %s\n", line)
		}
	}
	if q.Preferring != nil {
		p, err := tm.preferring.p, tm.preferring.err
		if err != nil {
			return "", err
		}
		simplified := algebra.Simplify(p)
		alg := opts.Algorithm
		resolved := alg
		if alg == engine.Auto {
			resolved = engine.PlanShardedOn(simplified, s, sets, engine.Env{}).PerShard.Algorithm
		}
		if _, isScorer := p.(pref.Scorer); isScorer && q.Top > 0 {
			scoring := "interpreted"
			if pref.Compilable(p) {
				scoring = "compiled"
			}
			emit("ranked query model (k-best): TOP %d by combined score of %s [%s scoring per shard; shards=%d, merge=top-k heap]",
				q.Top, p, scoring, nShards)
			emitProjection(&b, &step, q)
			return b.String(), nil
		}
		if len(q.GroupingBy) > 0 {
			emit("BMO σ[P groupby {%s}], P = %s [algorithm %s per group per shard, %s evaluation; %s via shard-merge dictionary]",
				strings.Join(q.GroupingBy, ", "), simplified, resolved, evalModeOf(simplified, resolved), shardFacts(simplified))
		} else {
			emit("BMO σ[P], P = %s [algorithm %s per shard, %s evaluation; %s]",
				simplified, resolved, evalModeOf(simplified, resolved), shardFacts(simplified))
		}
		if simplified.String() != p.String() {
			fmt.Fprintf(&b, "    (simplified from %s by the preference algebra)\n", p)
		}
		if evalModeOf(simplified, resolved) == "compiled" {
			cacheLine(simplified, len(q.GroupingBy) > 0)
		}
		if len(q.GroupingBy) == 0 {
			// Per-shard local maxima are what the sharded pipeline caches;
			// the cross-shard merge recomputes on every execution.
			if cached, ok := engine.ResultCachedShards(simplified, s, q.Where); !ok {
				fmt.Fprintf(&b, "    (result cache: bypass — term or WHERE not keyable)\n")
			} else if cached == nShards {
				fmt.Fprintf(&b, "    (result cache: hit on all shards — local maxima served, merge only)\n")
			} else {
				fmt.Fprintf(&b, "    (result cache: cold on %d/%d shards — local maxima stored at first execution)\n", nShards-cached, nShards)
			}
		}
		if streamShape(q) {
			fmt.Fprintf(&b, "    (streaming: %s)\n", shardedStreamModeOf(simplified, q.Where != nil))
		}
		if alg == engine.Auto {
			inlinePlan(simplified)
		}
	}
	for _, c := range tm.cascades {
		p, err := c.p, c.err
		if err != nil {
			return "", err
		}
		simplified := algebra.Simplify(p)
		resolved := opts.Algorithm
		if resolved == engine.Auto {
			resolved = engine.ResolveAuto(simplified, n/max(nShards, 1))
		}
		emit("cascade BMO σ[P], P = %s [algorithm %s per shard; %s]", simplified, resolved, shardFacts(simplified))
	}
	if q.ButOnly != nil {
		mode := "interpreted"
		if butCompilable(q.ButOnly) {
			byAttr := collectBasePrefs(tm)
			boundShards := 0
			for _, sh := range s.Shards() {
				if butBound(q.ButOnly, byAttr, sh) {
					boundShards++
				}
			}
			if boundShards == nShards {
				mode = "compiled vector scan (vectors cached on all shards)"
			} else {
				mode = "compiled vector scan (adaptive)"
			}
		}
		// Mirror execSharded's fusion rule: the threshold scan rides the
		// per-shard fan-out of the last soft pass when one precedes it.
		placement := "separate scan"
		if len(q.Cascades) > 0 || (q.Preferring != nil && len(q.GroupingBy) == 0) {
			placement = "fused into per-shard BMO pass"
		}
		emit("quality filter BUT ONLY %s [%s per shard; %s; shards=%d]", q.ButOnly, mode, placement, nShards)
	}
	if q.Skyline != nil {
		p, err := q.Skyline.Preference()
		if err != nil {
			return "", err
		}
		resolved := opts.Algorithm
		planned := resolved == engine.Auto
		if planned {
			resolved = engine.PlanShardedOn(p, s, sets, engine.Env{}).PerShard.Algorithm
		}
		emit("%s ⇒ BMO σ[P], P = %s [algorithm %s per shard, %s evaluation; %s]",
			q.Skyline, p, resolved, evalModeOf(p, resolved), shardFacts(p))
		if planned && q.Preferring == nil {
			inlinePlan(p)
		}
		if q.Preferring == nil && streamShape(q) {
			fmt.Fprintf(&b, "    (streaming: %s)\n", shardedStreamModeOf(p, q.Where != nil))
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

// shardedStreamModeOf names the delivery mode the sharded stream will
// use: cross-shard progressive confirmation in raw coordinate order for
// compilable chain products, batch fallback otherwise.
func shardedStreamModeOf(p pref.Preference, hasWhere bool) string {
	if !engine.StreamShardedKeyed(p) {
		return "batch fallback — term outside the cross-shard chain fragment"
	}
	if hasWhere {
		return "progressive — cross-shard raw coordinate order over the per-shard WHERE index lists"
	}
	return "progressive — cross-shard raw coordinate order"
}

// bindStatus words the compile line of a flat BMO step over m candidate
// rows: the compile-cache status and the bind scope execution will pick.
func bindStatus(p pref.Preference, rel *relation.Relation, m int) string {
	switch scope := engine.BindScopeOf(p, rel, m); scope {
	case engine.BindCached:
		return fmt.Sprintf("hit — bound form reused; bind: %s", scope)
	case engine.BindGathered:
		return fmt.Sprintf("bypass — one-shot bind, nothing cached; bind: %s %d of %d rows", scope, m, rel.Len())
	default:
		return fmt.Sprintf("cold — binds at first execution; bind: %s over %d rows", scope, rel.Len())
	}
}

// evalModeOf names the evaluation path the engine will take for the term
// under the resolved algorithm: compiled columnar for the library's
// constructor fragment, interpreted tuple-at-a-time otherwise. The
// decomposition evaluator compiles per sub-term inside its recursion
// (each Prop 8–12 leaf binds and caches independently), so it reports
// "compiled (sub-terms)" — and the whole-term compile-cache probe does
// not apply to it. (A structurally compilable term can still fall back at
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
// (streamShape in stream.go decides whether the note applies at all):
// progressive confirmation in sort-key order (over the compiled key
// vectors or the interpreted key derivation) or one batch computation
// replayed. hasWhere selects the index-chained wording — without a WHERE
// clause the stream visits the whole relation and no index list exists.
func streamModeOf(p pref.Preference, hasWhere bool) string {
	if !engine.StreamKeyed(p) {
		return "batch fallback — no compatible sort key"
	}
	if pref.Compilable(p) {
		if hasWhere {
			return "progressive — compiled keys over the WHERE index list"
		}
		return "progressive — compiled keys"
	}
	return "progressive — interpreted keys"
}

// butCompilable reports whether a BUT ONLY tree consists solely of
// built-in nodes, i.e. executes as a compiled vector threshold scan; a
// foreign ButExpr implementation keeps the per-tuple Eval path.
func butCompilable(e ButExpr) bool {
	switch n := e.(type) {
	case *ButAnd:
		return butCompilable(n.L) && butCompilable(n.R)
	case *ButOr:
		return butCompilable(n.L) && butCompilable(n.R)
	case *ButCond:
		return true
	}
	return false
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
