package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/quality"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/relation/store"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run: the end-to-end metrics of the untraced
// window and, when the run was traced, the per-layer metrics.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// counters is a reading of every cumulative counter the layers expose;
// per-layer counts are differences between the readings taken just
// before and just after the measured window.
type counters struct {
	srvQueries, srvErrors, srvOverloads, srvInserts uint64
	rcHits, rcMisses, rcCarries                     uint64
	filterHits, filterMisses                        uint64
	compileHits, compileMisses                      uint64
	scoreHits, scoreMisses                          uint64
	measureHits, measureMisses                      uint64
	pool                                            store.PoolStats
	walBytes, segmentBytes                          int64
	version                                         uint64
	epochs                                          []uint64
	epochBytes                                      int64
	gcPauseNs, allocBytes                           uint64
}

func readCounters(inst *instance) counters {
	var c counters
	m := inst.srv.Metrics()
	c.srvQueries, c.srvErrors, c.srvOverloads, c.srvInserts = m.Queries, m.Errors, m.Overloads, m.Inserts
	c.rcHits, c.rcMisses, c.rcCarries = resultcache.Stats()
	c.filterHits, c.filterMisses = filter.CacheStats()
	c.compileHits, c.compileMisses = engine.CompileCacheStats()
	c.scoreHits, c.scoreMisses = rank.ScoreCacheStats()
	c.measureHits, c.measureMisses = quality.MeasureCacheStats()
	for _, sh := range shardsOf(inst.writeTbl) {
		c.version += sh.Version()
	}
	if inst.store != nil {
		st := inst.store.Stats()
		c.pool, c.walBytes, c.segmentBytes = st.Pool, st.WALBytes(), st.SegmentBytes()
		c.epochs = shardEpochs(inst.storeDir, inst.def.insertInto())
		c.epochBytes = epochBytes(inst.storeDir, inst.def.insertInto())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseNs, c.allocBytes = ms.PauseTotalNs, ms.TotalAlloc
	return c
}

// roundRobin merges the sessions' streams into the single sequence the
// traced pass and the oracle sample replay.
func roundRobin(gens []func() op) func() op {
	next := 0
	return func() op {
		o := gens[next%len(gens)]()
		next++
		return o
	}
}

func sessionGens(def *workloadDef, sz *sizes, seed int64) []func() op {
	gens := make([]func() op, def.sessions)
	for s := range gens {
		gens[s] = def.gen(sz, seed, s, payloadRows)
	}
	return gens
}

// runWorkload sets the workload up (SetupReps times, keeping the last),
// warms it, measures one window with tracing off, checks correctness —
// and, when traced, replays the head of the stream with spans and
// probes the layers. The end-to-end numbers always come from the
// untraced window.
func runWorkload(def *workloadDef, sz *sizes, seed int64, seconds time.Duration, traced bool, outDir string) (*runResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var (
		inst       *instance
		setupTimes []float64
	)
	for rep := 0; rep < sz.SetupReps; rep++ {
		if inst != nil {
			inst.tearDown()
		}
		t0 := time.Now()
		var err error
		if inst, err = setUp(def, sz, outDir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer inst.tearDown()
	baseLen := inst.writeTbl.Len()
	res := &runResult{Workload: def.name, Seed: seed, Seconds: seconds.Seconds(), EndToEnd: map[string]metric{}}

	// The pool's oracle hashes: only a table nobody writes keeps them valid.
	var poolHash []uint64
	if inst.pool != nil && def.readOnly {
		var err error
		if poolHash, err = poolOracle(inst.pool, flatten(inst.table), sz.NaiveOracle); err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", def.name, err)
		}
	}
	gens := sessionGens(def, sz, seed)
	var rate float64
	if def.rate != nil {
		rate = def.rate(sz)
	}
	warm := runWindow(inst, gens, poolHash, rate, sz.Warmup, 1, false)
	before := readCounters(inst)
	w := runWindow(inst, gens, poolHash, rate, seconds, sz.Slices, traced)
	after := readCounters(inst)
	rss, peak := residentAfterGC(), procStatusMB("VmHWM")

	res.Attempted, res.Failed = w.attempted()
	res.Failures = w.failures()

	var dur durability
	acked := w.acked()
	if inst.store != nil {
		// Straight after the last acknowledged insert: no Close, no
		// final checkpoint. Warm-up inserts were acknowledged too.
		dur = checkCrashImage(inst, sz, baseLen, append(warm.acked(), acked...))
		res.Attempted++ // the check counts as one operation: it can fail the run
		if dur.err != nil {
			res.Failed++
			res.Failures = append(res.Failures, "durability: "+dur.err.Error())
		}
	}
	var storeBytes, liveBytes int64
	if traced && inst.store != nil {
		// Sized now, before the traced pass and the probes add rows.
		storeBytes = dirBytes(inst.storeDir)
		for _, tbl := range inst.cat {
			liveBytes += userBytes(flatten(tbl).Rows())
		}
	}
	checked, bad := verifySample(inst, sampleStatements(roundRobin(sessionGens(def, sz, seed)), sz.OracleSample), sz.NaiveOracle)
	res.Attempted += checked
	res.Failed += len(bad)
	res.Failures = append(res.Failures, bad...)
	res.Correct = res.Failed == 0

	res.EndToEnd["setup_s"] = metric{median(setupTimes), "s"}
	res.EndToEnd["throughput_ops_s"] = metric{w.throughput(), "1/s"}
	res.EndToEnd["bmo_p50_ms"] = metric{w.latency(classBMO, 0.5), "ms"}
	res.EndToEnd["rss_mb"] = metric{rss, "MB"}

	if traced {
		tr := newTracer()
		lp := tracedPass(inst, sz, roundRobin(sessionGens(def, sz, seed)), tr)
		res.PerLayer = layerMetrics(inst, w, before, after, lp, dur, acked, storeBytes, liveBytes)
		res.PerLayer["runtime.peak_rss_mb"] = metric{peak, "MB"}
		if err := tr.write(filepath.Join(outDir, "trace-"+def.name+".json")); err != nil {
			return nil, err
		}
		if cov := res.PerLayer["trace.coverage_ratio"].Value; cov < 0.8 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("trace coverage %.2f < 0.80: the stage spans do not explain psql.ExecCtx", cov))
		}
	}
	if rate > 0 {
		if lag := w.lagP95(); lag > 1 {
			res.Warnings = append(res.Warnings, fmt.Sprintf("generator ran %.2f ms late at p95 (> 1 ms): the paced sessions' numbers of this run are void", lag))
		}
	}
	return res, nil
}

// layerMetrics assembles the per-layer metrics: counter differences
// over the untraced window, the traced pass's span medians, and the
// storage probes. A layer the workload never entered reports 0.
func layerMetrics(inst *instance, w *window, before, after counters, lp *layerProbe, dur durability, acked []relation.Row, storeBytes, liveBytes int64) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	delta := func(a, b uint64) float64 { return float64(b - a) }
	completed := float64(max(1, w.completed()))
	attempted, failed := w.attempted()

	// client: the harness's own view — the validity of every other number.
	set("client.ops_attempted", float64(attempted), "count")
	set("client.ops_failed", float64(failed), "count")
	set("client.samples", completed, "count")
	set("client.error_rate", ratio(float64(failed), float64(attempted)), "ratio")
	set("client.op_p99_ms", w.allLatP99(), "ms")
	set("client.sched_lag_p95_ms", w.lagP95(), "ms")
	set("client.bmo_p95_ms", w.latency(classBMO, 0.95), "ms")
	set("client.select_p50_ms", w.latency(classSelect, 0.5), "ms")
	set("client.topk_p50_ms", w.latency(classTopK, 0.5), "ms")
	set("client.stream_first_row_p50_ms", w.streamFirstRow(), "ms")
	set("client.insert_p50_ms", w.latency(classInsert, 0.5), "ms")
	set("client.insert_p95_ms", w.latency(classInsert, 0.95), "ms")

	set("server.queries", delta(before.srvQueries, after.srvQueries), "count")
	set("server.errors", delta(before.srvErrors, after.srvErrors), "count")
	set("server.overloads", delta(before.srvOverloads, after.srvOverloads), "count")
	set("server.inserts", delta(before.srvInserts, after.srvInserts), "count")
	set("server.roundtrip_self_us_p50", lp.p50("server.roundtrip_self", 1e3), "us")

	set("wire.encode_us_p50", lp.p50("wire.encode", 1e3), "us")
	set("wire.decode_us_p50", lp.p50("wire.decode", 1e3), "us")
	set("wire.bytes_per_result", lp.mean("wire.bytes_per_result"), "B")
	set("wire.frames_per_result", lp.mean("wire.frames_per_result"), "count")

	set("psql.parse_us_p50", lp.p50("psql.parse", 1e3), "us")
	set("psql.exec_ms_p50", lp.p50("psql.exec", 1e6), "ms")
	set("algebra.simplify_us_p50", lp.p50("algebra.simplify", 1e3), "us")

	set("filter.compile_ms_p50", lp.p50("filter.compile", 1e6), "ms")
	set("filter.cache_hit_ratio", ratio(delta(before.filterHits, after.filterHits),
		delta(before.filterHits, after.filterHits)+delta(before.filterMisses, after.filterMisses)), "ratio")
	set("filter.selectivity", lp.mean("filter.selectivity"), "ratio")

	set("pref.bind_ms_p50", lp.p50("pref.bind", 1e6), "ms")
	set("engine.compile_cache_hit_ratio", ratio(delta(before.compileHits, after.compileHits),
		delta(before.compileHits, after.compileHits)+delta(before.compileMisses, after.compileMisses)), "ratio")

	set("engine.plan_us_p50", lp.p50("engine.plan", 1e3), "us")
	set("engine.bmo_ms_p50", lp.p50("engine.bmo", 1e6), "ms")
	set("engine.rows_examined_per_result", lp.mean("engine.rows_examined_per_result"), "count")
	set("engine.shard_slowest_ms_p50", lp.p50("engine.shard_slowest", 1e6), "ms")
	set("engine.shard_merge_ms_p50", lp.p50("engine.shard_merge", 1e6), "ms")
	set("engine.stream_first_ms_p50", lp.p50("engine.stream_first", 1e6), "ms")
	avx2 := 0.0
	if engine.AVX2Enabled() {
		avx2 = 1
	}
	set("engine.avx2_active", avx2, "bool")

	hits, misses := delta(before.rcHits, after.rcHits), delta(before.rcMisses, after.rcMisses)
	set("resultcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("resultcache.hits", hits, "count")
	set("resultcache.misses", misses, "count")
	set("resultcache.carries", delta(before.rcCarries, after.rcCarries), "count")
	set("resultcache.len", float64(resultcache.Len()), "count")

	set("rank.topk_ms_p50", lp.p50("rank.topk", 1e6), "ms")
	set("rank.score_cache_hit_ratio", ratio(delta(before.scoreHits, after.scoreHits),
		delta(before.scoreHits, after.scoreHits)+delta(before.scoreMisses, after.scoreMisses)), "ratio")
	set("quality.measure_cache_hit_ratio", ratio(delta(before.measureHits, after.measureHits),
		delta(before.measureHits, after.measureHits)+delta(before.measureMisses, after.measureMisses)), "ratio")

	set("relation.insert_us_p50", lp.p50("relation.insert", 1e3), "us")
	set("relation.snapshot_us_p50", lp.p50("relation.snapshot", 1e3), "us")
	set("relation.version_bumps", delta(before.version, after.version), "count")

	storeMetrics(inst, set, before, after, w, dur, acked, storeBytes, liveBytes)

	set("runtime.cpu_ms_per_op", w.cpuPerOp(), "ms")
	set("runtime.gc_pause_total_ms", delta(before.gcPauseNs, after.gcPauseNs)/1e6, "ms")
	set("runtime.alloc_bytes_per_op", delta(before.allocBytes, after.allocBytes)/completed, "B")
	var heapPeak uint64
	for _, s := range w.samples {
		heapPeak = max(heapPeak, s.heapUse)
	}
	set("runtime.heap_peak_mb", float64(heapPeak)/(1<<20), "MB")

	set("trace.statements", float64(lp.traced), "count")
	set("trace.coverage_ratio", lp.p50("trace.coverage", 1), "ratio")
	set("trace.overhead_ratio", ratio(median(lp.tracedRTT), median(lp.baseline)), "ratio")
	return m
}

// storeMetrics fills the disk tier's rows; an in-memory workload has no
// store and reports 0 throughout.
func storeMetrics(inst *instance, set func(string, float64, string), before, after counters, w *window, dur durability, acked []relation.Row, storeBytes, liveBytes int64) {
	names := []struct{ name, unit string }{
		{"store.pool_hit_ratio", "ratio"}, {"store.pool_evictions", "count"}, {"store.pool_resident_bytes", "B"},
		{"store.wal_bytes", "B"}, {"store.wal_append_us_p50", "us"}, {"store.segment_bytes", "B"},
		{"store.checkpoints", "count"}, {"store.checkpoint_ms_p50", "ms"}, {"store.checkpoint_stall_ms_max", "ms"},
		{"store.open_ms", "ms"}, {"store.write_amp", "ratio"}, {"store.space_amp", "ratio"}, {"store.recovery_s", "s"},
	}
	for _, n := range names {
		set(n.name, 0, n.unit)
	}
	if inst.store == nil {
		return
	}
	hits := float64(after.pool.Hits - before.pool.Hits)
	misses := float64(after.pool.Misses - before.pool.Misses)
	set("store.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("store.pool_evictions", float64(after.pool.Evictions-before.pool.Evictions), "count")
	set("store.pool_resident_bytes", float64(after.pool.ResidentBytes), "B")
	set("store.wal_bytes", float64(after.walBytes), "B")
	set("store.segment_bytes", float64(after.segmentBytes), "B")
	checkpoints := 0
	for i := range after.epochs {
		if i < len(before.epochs) {
			checkpoints += int(after.epochs[i] - before.epochs[i])
		}
	}
	set("store.checkpoints", float64(checkpoints), "count")
	if checkpoints > 0 {
		// An insert that crosses the checkpoint threshold runs the
		// checkpoint inline, so the worst insert of a window with
		// checkpoints is the stall one of them caused.
		set("store.checkpoint_stall_ms_max", w.worstLatency(classInsert), "ms")
	}
	set("store.open_ms", dur.openMs, "ms")
	set("store.recovery_s", dur.recoveryS, "s")

	writeAmp, spaceAmp := amplification(acked, checkpoints, before.epochBytes, after.epochBytes, storeBytes, liveBytes)
	set("store.write_amp", writeAmp, "ratio")
	set("store.space_amp", spaceAmp, "ratio")

	if probe, err := walAppendProbe(inst.storeDir, payloadRows, 200); err == nil {
		set("store.wal_append_us_p50", median(probe), "us")
	}
	// Store.Checkpoint only rewrites shards with a WAL tail: give each
	// one a row first, then time the fold of all of them.
	var cps []float64
	sharded, _ := inst.writeTbl.(*relation.Sharded)
	for rep := 0; rep < 3 && sharded != nil; rep++ {
		for k := 0; k < 4*sharded.NumShards(); k++ {
			row := append(relation.Row(nil), payloadRows[k%len(payloadRows)]...)
			row[0] = int64(4_000_000_000 + rep*1000 + k)
			sharded.Insert(row)
		}
		t0 := time.Now()
		if inst.store.Checkpoint() == nil {
			cps = append(cps, float64(time.Since(t0))/1e6)
		}
	}
	set("store.checkpoint_ms_p50", median(cps), "ms")
}
