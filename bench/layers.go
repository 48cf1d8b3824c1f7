package main

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/psql"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/wire"
)

// layerProbe accumulates the traced pass's per-layer samples, keyed by
// the span name they came from (durations in nanoseconds) or by a
// counter name (plain numbers).
type layerProbe struct {
	d         map[string][]float64
	traced    int // statements replayed
	baseline  []float64
	tracedRTT []float64
}

func (lp *layerProbe) add(key string, v float64) { lp.d[key] = append(lp.d[key], v) }

// p50 returns the median of a sample list scaled by 1/div (0 when the
// workload never exercised the layer).
func (lp *layerProbe) p50(key string, div float64) float64 {
	if len(lp.d[key]) == 0 {
		return 0
	}
	return median(lp.d[key]) / div
}

func (lp *layerProbe) mean(key string) float64 {
	v := lp.d[key]
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// snapshotOf pins the table's current generation the way the server
// does before it executes a statement.
func snapshotOf(tbl relation.Table) relation.Table {
	if sh, ok := tbl.(*relation.Sharded); ok {
		return sh.Snapshot()
	}
	return tbl.(*relation.Relation).Snapshot()
}

// shardsOf views a table as its shards (a flat table is its own one).
func shardsOf(tbl relation.Table) []*relation.Relation {
	if sh, ok := tbl.(*relation.Sharded); ok {
		return sh.Shards()
	}
	return []*relation.Relation{tbl.(*relation.Relation)}
}

// tracedPass replays the head of the seeded sequence through one
// client, twice: once with nothing recorded (the untraced baseline of
// the same statements), once with a span around every call the harness
// makes — Client.Query/Stream/Insert over the wire, psql.ExecCtx on the
// same snapshot, then each layer's public entry point in the order
// psql/exec.go calls them. The pass stops early when the baseline has
// used a quarter of the budget, and reports how many statements it
// covered.
func tracedPass(inst *instance, sz *sizes, gen func() op, tr *tracer) *layerProbe {
	lp := &layerProbe{d: make(map[string][]float64)}
	c := inst.clients[0]
	// Every replay must be an operation nobody has executed yet. Variant
	// k of an insert takes an oid outside every generated range; variant
	// k of a statement — on a workload of unique statements — nudges each
	// literal by k units in its last place: a new cache key at the same
	// cost.
	variant := func(o op, k int) op {
		switch {
		case o.class == classInsert:
			row := append(relation.Row(nil), o.row...)
			row[0] = row[0].(int64) + int64(k)*1_000_000_000
			o.row = row
		case inst.def.cold:
			o.stmt = nudgeLiterals(o.stmt, k)
		}
		return o
	}

	var ops []op
	stop := time.Now().Add(sz.TraceBudget / 4)
	for len(ops) < sz.TraceOps && time.Now().Before(stop) {
		o := gen()
		t0 := time.Now()
		if _, _, err := execOp(c, variant(o, 1), inst.def, nil, t0); err == nil {
			lp.baseline = append(lp.baseline, float64(time.Since(t0)))
		}
		ops = append(ops, o)
	}
	lp.traced = len(ops)

	for i, o := range ops {
		root := tr.start(0, i, "op."+classNames[o.class])
		call := tr.start(root, i, "client."+classNames[o.class])
		_, _, err := execOp(c, variant(o, 2), inst.def, nil, time.Now())
		rtt := tr.end(call)
		if err == nil {
			lp.tracedRTT = append(lp.tracedRTT, float64(rtt))
		}
		if o.class == classInsert {
			replayInsert(inst, tr, lp, root, i, variant(o, 3).row, rtt)
		} else {
			replayRead(inst, tr, lp, root, i, variant(o, 3), variant(o, 4), variant(o, 5), rtt)
		}
		tr.end(root)
	}
	return lp
}

// replayInsert applies the insert directly to the live table (hooks —
// result-cache maintenance — included) and re-pins a snapshot, the two
// things a served insert costs below the wire.
func replayInsert(inst *instance, tr *tracer, lp *layerProbe, root, i int, row relation.Row, rtt time.Duration) {
	rep := tr.start(root, i, "replay")
	ins := tr.timed(rep, i, "relation.insert", func() {
		switch t := inst.writeTbl.(type) {
		case *relation.Relation:
			t.Insert(row)
		case *relation.Sharded:
			t.Insert(row)
		}
	})
	lp.add("relation.insert", float64(ins))
	lp.add("relation.snapshot", float64(tr.timed(rep, i, "relation.snapshot", func() { snapshotOf(inst.writeTbl) })))
	tr.end(rep)
	lp.add("server.roundtrip_self", float64(rtt-ins))
}

// nudgeLiterals adds k units in the last place to every numeric literal
// of the statement (column names like d4 are not literals: no word
// boundary precedes their digit).
var literal = regexp.MustCompile(`\b\d+(\.\d+)?\b`)

func nudgeLiterals(stmt string, k int) string {
	return literal.ReplaceAllStringFunc(stmt, func(lit string) string {
		if dot := strings.IndexByte(lit, '.'); dot >= 0 {
			digits := len(lit) - dot - 1
			v, _ := strconv.ParseFloat(lit, 64)
			return strconv.FormatFloat(v+float64(k)*math.Pow10(-digits), 'f', digits, 64)
		}
		v, _ := strconv.ParseInt(lit, 10, 64)
		return strconv.FormatInt(v+int64(k), 10)
	})
}

// replayRead re-enacts one read statement below the wire: whole is the
// statement psql.ExecCtx runs, o the one replayed layer by layer, probe
// the one each shard evaluates alone (the same statement three times, or
// three variants of it on a unique-statement workload).
func replayRead(inst *instance, tr *tracer, lp *layerProbe, root, i int, whole, o, probe op, rtt time.Duration) {
	ctx, cancel := context.WithCancel(context.Background()) // cancellable, like a session's: selects the same hardened paths
	defer cancel()
	wholeQ, err := psql.Parse(whole.stmt)
	if err != nil {
		return
	}
	q, err := psql.Parse(o.stmt)
	if err != nil {
		return
	}
	var snap relation.Table
	lp.add("relation.snapshot", float64(tr.timed(root, i, "relation.snapshot", func() { snap = snapshotOf(inst.table) })))
	cat := psql.Catalog{q.From: snap}
	opts := psql.Options{Admission: inst.srv.Admission()}

	// The statement as the server executes it, minus the wire.
	exec := tr.timed(root, i, "psql.exec", func() {
		if o.class == classStream {
			psql.ExecStream(wholeQ, cat, psql.Options{}, func(relation.Row) bool { return true })
		} else {
			psql.ExecCtx(ctx, wholeQ, cat, opts)
		}
	})
	lp.add("psql.exec", float64(exec))
	lp.add("server.roundtrip_self", float64(rtt-exec))

	// The same statement layer by layer.
	rep := tr.start(root, i, "replay")
	defer tr.end(rep)
	stage := func(name string, f func()) time.Duration {
		d := tr.timed(rep, i, name, f)
		lp.add(name, float64(d))
		return d
	}
	stage("psql.parse", func() { psql.Parse(o.stmt) })

	shards := shardsOf(snap)
	sharded, _ := snap.(*relation.Sharded)
	var covered time.Duration // stage time that lies inside psql.exec
	if o.class != classStream {
		// What ExecCtx does before the pipeline proper: take an admission
		// slot, then validate every attribute reference (which builds the
		// preference a first time).
		covered += stage("engine.admission", func() {
			if release, err := inst.srv.Admission().Acquire(ctx); err == nil {
				release()
			}
		})
		covered += stage("psql.checkattrs", func() {
			schema := snap.Schema()
			for _, a := range q.Select {
				schema.Index(a)
			}
			if q.Preferring != nil {
				if p, err := q.Preferring.Build(); err == nil {
					for _, a := range p.Attrs() {
						schema.Index(a)
					}
				}
			}
		})
	}
	sets := make(engine.ShardSets, len(shards))
	total, cand := snap.Len(), snap.Len()
	if q.Where != nil {
		cand = 0
		covered += stage("filter.compile", func() {
			for k, sh := range shards {
				sets[k] = filter.CompileCached(q.Where, sh).Indices()
				cand += len(sets[k])
			}
		})
		lp.add("filter.selectivity", ratio(float64(cand), float64(total)))
	}

	var out *relation.Relation
	pick := func(rows func() *relation.Relation) {
		covered += stage("relation.pick", func() {
			out = rows()
			if len(q.Select) > 0 {
				if p, err := out.Project(q.Select); err == nil {
					out = p
				}
			}
		})
	}
	pickSets := func(local engine.ShardSets) {
		pick(func() *relation.Relation {
			if sharded != nil {
				return sharded.Pick(local.GlobalIDs(sharded))
			}
			return shards[0].Pick(local[0])
		})
	}

	if q.Preferring == nil {
		pickSets(sets)
	} else {
		var built pref.Preference
		covered += stage("psql.build", func() { built, err = q.Preferring.Build() })
		if err != nil {
			return
		}
		var p pref.Preference
		covered += stage("algebra.simplify", func() { p = algebra.Simplify(built) })
		scorer, ranked := built.(pref.Scorer)
		if o.class == classStream && sharded == nil {
			// A Scorer with TOP k is the ranked model: the server evaluates
			// it in one batch and replays the rows into the stream frames.
			// What a progressive evaluation of the same preference costs up
			// to its first row is measured beside it (outside the coverage:
			// the server does not run it).
			stage("engine.stream_first", func() {
				st := engine.EvalStreamCtx(ctx, p, shards[0], engine.Auto, sets[0])
				st.Next()
				st.Close()
			})
		}
		switch {
		case ranked && q.Top > 0:
			var results []rank.Result
			covered += stage("rank.topk", func() {
				if sharded != nil {
					results, _, _ = rank.TopKShardedCtx(ctx, scorer, sharded, q.Top, sets, relation.Robust{})
				} else {
					results, _ = rank.TopKOnCtx(ctx, scorer, shards[0], q.Top, sets[0])
				}
			})
			gids := make([]int, len(results))
			for k, r := range results {
				gids[k] = r.Row
			}
			pick(func() *relation.Relation {
				if sharded != nil {
					return sharded.Pick(gids)
				}
				return shards[0].Pick(gids)
			})
		default:
			probeP := p
			if pq, err := psql.Parse(probe.stmt); err == nil && pq.Preferring != nil {
				if built, err := pq.Preferring.Build(); err == nil {
					probeP = algebra.Simplify(built)
				}
			}
			local := replayBMO(ctx, tr, lp, rep, i, stage, &covered, p, probeP, q.Where, snap, shards, sets)
			results := 0
			for _, set := range local {
				results += len(set)
			}
			lp.add("engine.rows_examined_per_result", ratio(float64(cand), float64(max(1, results))))
			pickSets(local)
		}
	}
	lp.add("trace.coverage", ratio(float64(covered), float64(exec)))
	if out != nil {
		replayWire(lp, stage, out, uint64(total))
	}
}

// replayBMO is the first soft step: bind the preference (only when the
// result cache cannot serve the maxima — a served statement never binds),
// plan, evaluate through the keyed entry point the server uses, then —
// on a sharded table — time each shard's evaluation of probeP alone, to
// split the fan-out into its slowest shard and the cross-shard merge.
func replayBMO(ctx context.Context, tr *tracer, lp *layerProbe, rep, i int, stage func(string, func()) time.Duration, covered *time.Duration,
	p, probeP pref.Preference, where filter.Pred, snap relation.Table, shards []*relation.Relation, sets engine.ShardSets) engine.ShardSets {
	sharded, _ := snap.(*relation.Sharded)
	served := false
	if sharded != nil {
		n, ok := engine.ResultCachedShards(p, sharded, where)
		served = ok && n == len(shards)
	} else {
		served = engine.ResultCacheState(p, shards[0], where) == "hit"
	}
	var bound time.Duration // the bind's share of the evaluation below
	if !served {
		// Bind with the pref layer's own entry point. The bound form is
		// not handed to the engine (its compile cache is keyed and filled
		// inside), so the evaluation below binds again: engine.bmo is
		// reported net of this span.
		bind := tr.start(rep, i, "pref.bind")
		var slowest, sum time.Duration
		for k, sh := range shards {
			if sh.Len() == 0 || engine.CompileCached(p, sh) {
				continue
			}
			d := tr.timed(bind, i, fmt.Sprintf("pref.bind[%d]", k), func() { pref.Compile(p, sh) })
			sum += d
			slowest = max(slowest, d)
		}
		tr.end(bind)
		// Inside the server the shards bind within the fan-out, side by
		// side when there is a processor per shard.
		bound = slowest
		if runtime.GOMAXPROCS(0) < len(shards) {
			bound = sum
		}
		lp.add("pref.bind", float64(bound))
		stage("engine.plan", func() {
			if sharded != nil {
				engine.PlanShardedOn(p, sharded, sets, engine.Env{})
			} else {
				n := shards[0].Len()
				if sets[0] != nil {
					n = len(sets[0])
				}
				engine.PlanWithInput(p, shards[0], n, engine.Env{})
			}
		})
	}
	var local engine.ShardSets
	bmo := tr.timed(rep, i, "engine.bmo", func() {
		if sharded != nil {
			local, _, _ = engine.BMOShardedOnCtxKeyed(ctx, p, sharded, engine.Auto, sets, where, relation.Robust{})
		} else {
			idx, _ := engine.EvalIndicesCtxKeyed(ctx, p, shards[0], engine.Auto, sets[0], where)
			local = engine.ShardSets{idx}
		}
	})
	*covered += bmo
	lp.add("engine.bmo", float64(max(0, bmo-bound)))
	if local == nil {
		local = make(engine.ShardSets, len(shards))
	}
	if sharded != nil && !served {
		probe := tr.start(rep, i, "engine.shards")
		var slowest, sum time.Duration
		for k, sh := range shards {
			cand := sets[k]
			d := tr.timed(probe, i, fmt.Sprintf("engine.shard[%d]", k), func() {
				if cand == nil {
					engine.BMOIndices(probeP, sh, engine.Auto)
				} else if len(cand) > 0 {
					engine.BMOIndicesOn(probeP, sh, engine.Auto, cand)
				}
			})
			sum += d
			slowest = max(slowest, d)
		}
		tr.end(probe)
		lp.add("engine.shard_slowest", float64(slowest))
		// The fan-out runs min(nproc, shards) shards at a time: with a
		// processor per shard the merge is what the slowest shard does
		// not explain, on one processor what their sum does not.
		parallel := slowest
		if runtime.GOMAXPROCS(0) < len(shards) {
			parallel = sum
		}
		lp.add("engine.shard_merge", float64(max(0, bmo-parallel)))
	}
	return local
}

// replayWire encodes the result the way the session writes it (header,
// one frame per column, ready) and decodes it the way the client does.
func replayWire(lp *layerProbe, stage func(string, func()) time.Duration, rel *relation.Relation, snapLen uint64) {
	schema := rel.Schema()
	var frames [][]byte
	stage("wire.encode", func() {
		cols := make([]wire.Col, schema.Len())
		for c, col := range schema.Columns() {
			cols[c] = wire.Col{Name: col.Name, Type: col.Type}
		}
		frames = append(frames, wire.EncodeHeader(wire.Header{SnapLen: snapLen, NRows: uint32(rel.Len()), Cols: cols}))
		vals := make([]pref.Value, rel.Len())
		for c := range cols {
			for r := range vals {
				vals[r] = rel.Row(r)[c]
			}
			if payload, err := wire.EncodeColumn(c, vals); err == nil {
				frames = append(frames, payload)
			}
		}
		frames = append(frames, wire.EncodeReady(wire.Ready{}))
	})
	stage("wire.decode", func() {
		hdr, err := wire.DecodeHeader(frames[0])
		if err != nil {
			return
		}
		for _, payload := range frames[1 : len(frames)-1] {
			wire.DecodeColumn(payload, int(hdr.NRows))
		}
		wire.DecodeReady(frames[len(frames)-1])
	})
	const frameHeader = 5 // 4-byte length + 1-byte type
	bytes := 0
	for _, f := range frames {
		bytes += frameHeader + len(f)
	}
	lp.add("wire.bytes_per_result", float64(bytes))
	lp.add("wire.frames_per_result", float64(len(frames)))
}
