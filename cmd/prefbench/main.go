// Command prefbench regenerates the paper's evaluation artifacts: the
// worked Examples 1–11 and the quantitative studies F1–F4 (filter effect,
// BMO result sizes, algorithm crossover, ranked query model). Each report
// states PASS/FAIL against the outcome the paper claims.
//
// It also fronts the physical evaluation layer: -plan explains the
// cost-based plan the engine picks for a synthetic skyline workload, and
// -stream demonstrates progressive delivery (first maxima served long
// before the scan completes).
//
// Usage:
//
//	prefbench -all
//	prefbench -run E7
//	prefbench -list
//	prefbench -plan "price MIN, mileage MIN" -rows 50000 -dist anti
//	prefbench -stream "d1 MIN, d2 MIN" -rows 20000 -dist anti -first 5
//	prefbench -stream "d1 MIN, d2 MIN" -where "d3 <= 0.3" -dims 3 -rows 20000 -first 5
//	prefbench -plan "d1 MIN, d2 MIN" -rows 100000 -shards 4
//	prefbench -stream "d1 MIN, d2 MIN" -rows 100000 -shards 4 -first 5
//	prefbench -stream "d1 MIN, d2 MIN" -rows 100000 -shards 4 -timeout 100ms -faults "shard=2,mode=slow,ms=500"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/filter"
	"repro/internal/pref"
	"repro/internal/relation"
	"repro/internal/skyline"
	"repro/internal/workload"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		run     = flag.String("run", "", "run one experiment by ID (e.g. E7, F1)")
		list    = flag.Bool("list", false, "list experiments")
		plan    = flag.String("plan", "", "explain the cost-based plan for a SKYLINE OF clause over a synthetic workload")
		stream  = flag.String("stream", "", "stream first maxima of a SKYLINE OF clause over a synthetic workload")
		where   = flag.String("where", "", "hard selection 'attr op number' for -stream (e.g. 'd3 <= 0.3'): streams index-chained over the WHERE index list")
		rows    = flag.Int("rows", 20000, "synthetic workload size for -plan/-stream")
		dims    = flag.Int("dims", 0, "synthetic workload dimensions (default: clause dimension count)")
		dist    = flag.String("dist", "anti", "distribution for -plan/-stream: independent|correlated|anti|skewed")
		first   = flag.Int("first", 5, "maxima to stream before stopping with -stream")
		shards  = flag.Int("shards", 1, "shard the synthetic workload into N shards for -plan/-stream (range-partitioned on the first dimension)")
		timeout = flag.Duration("timeout", 0, "bound -stream with a deadline (and, sharded, a per-shard deadline under the partial-result policy)")
		faults  = flag.String("faults", "", "inject a per-shard fault for -stream -shards N: 'shard=2,mode=slow,ms=50' (modes slow|hang|panic|error)")
		persist = flag.Bool("persist", false, "back the -plan/-stream workload with a disk-backed store (temp dir)")
		poolMB  = flag.Int("pool-mb", 4, "with -persist: buffer-pool budget, MiB — size it below the workload to exercise paging")
	)
	flag.Parse()
	if *persist {
		persistPool = int64(*poolMB) << 20
		defer func() {
			if benchStore != nil {
				benchStore.Close()
			}
			if benchStoreDir != "" {
				os.RemoveAll(benchStoreDir)
			}
		}()
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *plan != "":
		if err := planDemo(*plan, *rows, *dims, *dist, *shards); err != nil {
			fatal(err)
		}
	case *stream != "":
		if err := streamDemo(*stream, *where, *rows, *dims, *dist, *first, *shards, *timeout, *faults); err != nil {
			fatal(err)
		}
	case *run != "":
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "prefbench: unknown experiment %q (try -list)\n", *run)
			os.Exit(2)
		}
		rep := e.Run()
		fmt.Print(rep)
		if !rep.Pass {
			os.Exit(1)
		}
	case *all:
		failed := 0
		for _, e := range experiments.All() {
			rep := e.Run()
			fmt.Print(rep)
			if !rep.Pass {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "prefbench: %d experiment(s) failed\n", failed)
			os.Exit(1)
		}
		fmt.Println("all experiments passed")
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// The -persist state: a lazily opened temp store the -plan/-stream
// workloads import into, so the demos run over paged, mmap-served
// tables instead of heap rows.
var (
	persistPool   int64
	benchStore    *relation.Store
	benchStoreDir string
)

// maybePersist routes a workload table through the temp store when
// -persist is set: the returned table serves rows through the buffer
// pool and columns from mmap'd segments.
func maybePersist(tbl relation.Table) (relation.Table, error) {
	if persistPool == 0 {
		return tbl, nil
	}
	if benchStore == nil {
		dir, err := os.MkdirTemp("", "prefbench-store-")
		if err != nil {
			return nil, err
		}
		benchStoreDir = dir
		if benchStore, err = relation.OpenStore(dir, relation.StoreOptions{PoolBytes: persistPool}); err != nil {
			return nil, err
		}
	}
	ptbl, err := benchStore.ImportTable(tbl)
	if err != nil {
		return nil, err
	}
	fmt.Printf("persist: %s paged from %s (%d segment bytes, %d byte pool)\n",
		ptbl.Name(), benchStoreDir, benchStore.Stats().SegmentBytes(), persistPool)
	return ptbl, nil
}

// synth builds the synthetic relation and preference for a SKYLINE OF
// clause over generated data.
func synth(clause string, rows, dims int, dist string) (skyline.Clause, *relation.Relation, error) {
	c, err := skyline.Parse(clause)
	if err != nil {
		return skyline.Clause{}, nil, err
	}
	var d workload.Distribution
	switch strings.ToLower(dist) {
	case "independent", "ind":
		d = workload.Independent
	case "correlated", "corr":
		d = workload.Correlated
	case "anti", "anti-correlated", "anticorrelated":
		d = workload.AntiCorrelated
	case "skewed", "skew":
		d = workload.Skewed
	default:
		return skyline.Clause{}, nil, fmt.Errorf("prefbench: unknown distribution %q", dist)
	}
	if dims < len(c.Dims) {
		dims = len(c.Dims)
	}
	return c, workload.Numeric(rows, dims, d, 42), nil
}

// shardWorkload range-partitions a synthetic relation on its first
// dimension into n equi-depth shards.
func shardWorkload(rel *relation.Relation, n int) (*relation.Sharded, error) {
	attr := rel.Schema().Col(0).Name
	s, err := relation.ShardRelation(rel, n, relation.ByRange(attr, relation.RangeBounds(rel, attr, n)...))
	if err != nil {
		return nil, err
	}
	tbl, err := maybePersist(s)
	if err != nil {
		return nil, err
	}
	return tbl.(*relation.Sharded), nil
}

// planDemo prints the cost-based plan decision for the workload: the
// flat plan, or — with -shards N — the sharded fan-out/merge decision.
func planDemo(clause string, rows, dims int, dist string, shards int) error {
	c, rel, err := synth(clause, rows, dims, dist)
	if err != nil {
		return err
	}
	p, err := c.Preference()
	if err != nil {
		return err
	}
	if shards > 1 {
		s, err := shardWorkload(rel, shards)
		if err != nil {
			return err
		}
		fmt.Printf("workload: %s (%d rows, %d shards by %s)\npreference: %s\n\n",
			rel.Name(), rel.Len(), s.NumShards(), s.Part(), p)
		fmt.Print(engine.PlanSharded(p, s, engine.Env{}).Explain())
		return nil
	}
	tbl, err := maybePersist(rel)
	if err != nil {
		return err
	}
	rel = tbl.(*relation.Relation)
	fmt.Printf("workload: %s (%d rows)\npreference: %s\n\n", rel.Name(), rel.Len(), p)
	fmt.Print(engine.PlanFor(p, rel).Explain())
	return nil
}

// parseWhere lowers a simple 'attr op number' condition to a hard
// selection predicate for the -stream demo.
func parseWhere(s string) (*filter.Cmp, error) {
	parts := strings.Fields(s)
	if len(parts) != 3 {
		return nil, fmt.Errorf("prefbench: -where wants 'attr op number', got %q", s)
	}
	switch parts[1] {
	case "<", "<=", "=", ">=", ">", "<>":
	default:
		return nil, fmt.Errorf("prefbench: -where operator %q not supported", parts[1])
	}
	v, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("prefbench: -where value %q: %w", parts[2], err)
	}
	return &filter.Cmp{Attr: parts[0], Op: parts[1], Value: v}, nil
}

// streamDemo serves the first maxima progressively and reports how little
// of the input each one needed. With a WHERE condition it runs the
// index-chained streaming path: the compiled selection yields a cached
// index list over the base relation and the preference stream visits
// exactly those positions — no materialized intermediate.
func streamDemo(clause, where string, rows, dims int, dist string, first, shards int, timeout time.Duration, faults string) error {
	c, rel, err := synth(clause, rows, dims, dist)
	if err != nil {
		return err
	}
	if shards > 1 {
		return streamShardedDemo(c, rel, where, first, shards, timeout, faults)
	}
	if faults != "" {
		return fmt.Errorf("prefbench: -faults needs a sharded workload (-shards N)")
	}
	p, err := c.Preference()
	if err != nil {
		return err
	}
	tbl, err := maybePersist(rel)
	if err != nil {
		return err
	}
	rel = tbl.(*relation.Relation)
	var idx []int
	candidates := rel.Len()
	if where != "" {
		pred, err := parseWhere(where)
		if err != nil {
			return err
		}
		if _, ok := rel.Schema().Index(pred.Attr); !ok {
			return fmt.Errorf("prefbench: -where column %q not in the synthetic workload (have %s; raise -dims?)",
				pred.Attr, strings.Join(rel.Schema().Names(), ", "))
		}
		idx = rel.WhereIndices(pred)
		candidates = len(idx)
		fmt.Printf("hard selection %s: %d of %d rows (cache-served index list)\n", where, len(idx), rel.Len())
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	st := engine.EvalStreamCtx(ctx, p, rel, engine.Auto, idx)
	fmt.Printf("workload: %s (%d rows), %s, progressive=%v\n", rel.Name(), rel.Len(), c, st.Progressive())
	emitted := 0
	st.Each(func(row int) bool {
		emitted++
		fmt.Printf("maximum #%d: row %d after examining %d/%d candidates\n", emitted, row, st.Consumed(), candidates)
		return emitted < first
	})
	if err := st.Err(); err != nil {
		fmt.Printf("stream terminated early: %v\n", err)
	}
	fmt.Printf("served %d maxima having examined %d of %d candidates\n", emitted, st.Consumed(), candidates)
	return nil
}

// parseFaults lowers the -faults spec ('shard=2,mode=slow,ms=50') to a
// shard index and an installable fault.
func parseFaults(spec string) (int, faultinject.Fault, error) {
	shard := -1
	f := faultinject.Fault{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return 0, f, fmt.Errorf("prefbench: -faults wants k=v pairs, got %q", kv)
		}
		switch k {
		case "shard":
			n, err := strconv.Atoi(v)
			if err != nil {
				return 0, f, fmt.Errorf("prefbench: -faults shard %q: %w", v, err)
			}
			shard = n
		case "mode":
			m, err := faultinject.ParseMode(v)
			if err != nil {
				return 0, f, err
			}
			f.Mode = m
		case "ms":
			n, err := strconv.Atoi(v)
			if err != nil {
				return 0, f, fmt.Errorf("prefbench: -faults ms %q: %w", v, err)
			}
			f.Latency = time.Duration(n) * time.Millisecond
		default:
			return 0, f, fmt.Errorf("prefbench: -faults key %q not supported (want shard|mode|ms)", k)
		}
	}
	if shard < 0 {
		return 0, f, fmt.Errorf("prefbench: -faults needs shard=N")
	}
	return shard, f, nil
}

// streamShardedDemo is streamDemo over a sharded workload: per-shard
// WHERE index lists feed the cross-shard progressive stream, and emitted
// global row ids decode to (shard, row). With -timeout or -faults the
// stream runs the ctx-aware fault-tolerant path: injected faults fire in
// the shard workers, a deadline bounds the run (and each shard), and the
// query degrades under the partial-result policy instead of failing.
func streamShardedDemo(c skyline.Clause, rel *relation.Relation, where string, first, shards int, timeout time.Duration, faults string) error {
	s, err := shardWorkload(rel, shards)
	if err != nil {
		return err
	}
	p, err := c.Preference()
	if err != nil {
		return err
	}
	var sets engine.ShardSets
	candidates := s.Len()
	if where != "" {
		pred, err := parseWhere(where)
		if err != nil {
			return err
		}
		if _, ok := s.Schema().Index(pred.Attr); !ok {
			return fmt.Errorf("prefbench: -where column %q not in the synthetic workload (have %s; raise -dims?)",
				pred.Attr, strings.Join(s.Schema().Names(), ", "))
		}
		sets = make(engine.ShardSets, s.NumShards())
		candidates = 0
		for i := 0; i < s.NumShards(); i++ {
			sets[i] = s.Shard(i).WhereIndices(pred)
			candidates += len(sets[i])
		}
		fmt.Printf("hard selection %s: %d of %d rows (per-shard cache-served index lists)\n", where, candidates, s.Len())
	}
	if faults != "" {
		// A fault demo must go through the shard workers: the progressive
		// stream builds its per-shard state synchronously up front, so only
		// the batch fan-out exercises the injected fault.
		return faultDemo(p, s, sets, faults, timeout)
	}
	ctx, rb := context.Background(), engine.Robust{}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
		rb = engine.Robust{Policy: engine.PolicyPartial, ShardTimeout: timeout}
	}
	st := engine.EvalStreamShardedCtx(ctx, p, s, engine.Auto, sets, rb)
	fmt.Printf("workload: %s (%d rows, %d shards by %s), %s, progressive=%v\n",
		rel.Name(), s.Len(), s.NumShards(), s.Part(), c, st.Progressive())
	emitted := 0
	st.Each(func(gid int) bool {
		emitted++
		shard, row := relation.SplitGlobalID(gid)
		fmt.Printf("maximum #%d: shard %d row %d after examining %d/%d candidates\n",
			emitted, shard, row, st.Consumed(), candidates)
		return emitted < first
	})
	if err := st.Err(); err != nil {
		fmt.Printf("stream terminated early: %v\n", err)
	}
	if part := st.Partial(); part != nil {
		fmt.Printf("partial result: shards %v missing (%v)\n", part.Missing, part.Errs[0])
	}
	fmt.Printf("served %d maxima having examined %d of %d candidates\n", emitted, st.Consumed(), candidates)
	return nil
}

// faultDemo injects the requested fault into one shard and runs the
// batch fan-out under the partial-result policy, reporting what survived.
// A -timeout doubles as both the query deadline and the per-shard budget.
func faultDemo(p pref.Preference, s *relation.Sharded, sets engine.ShardSets, faults string, timeout time.Duration) error {
	shard, f, err := parseFaults(faults)
	if err != nil {
		return err
	}
	if shard >= s.NumShards() {
		return fmt.Errorf("prefbench: -faults shard %d out of range (have %d shards)", shard, s.NumShards())
	}
	faultinject.Install(s, shard, f)
	defer faultinject.RemoveAll(s)
	fmt.Printf("fault injected: shard %d %s\n", shard, f.Mode)
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rb := engine.Robust{Policy: engine.PolicyPartial, ShardTimeout: timeout}
	start := time.Now()
	out, part, err := engine.BMOShardedOnCtx(ctx, p, s, engine.Auto, sets, rb)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf("query failed after %v: %v\n", elapsed.Round(time.Millisecond), err)
		return nil
	}
	rows := 0
	for _, local := range out {
		rows += len(local)
	}
	fmt.Printf("batch evaluation over %d shards: %d maxima in %v\n", s.NumShards(), rows, elapsed.Round(time.Millisecond))
	if part != nil {
		fmt.Printf("partial result: shards %v missing (%v)\n", part.Missing, part.Errs[0])
	} else {
		fmt.Println("all shards responsive — complete result")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
