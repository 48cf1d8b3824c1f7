// Command prefload drives a prefserve server with a concurrent mixed
// workload — plain selections, BMO preference queries, ranked TOP-k,
// progressive streams — from N client sessions while a writer session
// appends rows, and reports per-query latency percentiles per session
// count. It is the serving layer's load generator: the numbers committed
// as the Prefload/* entries of BENCH_BASELINE.json come from it.
//
// Usage:
//
//	prefload                          # in-process server over demo data
//	prefload -addr localhost:5477     # drive an already-running server
//	prefload -sessions 1,8,32 -duration 2s -bench
//
// With -bench the report is `go test -bench`-style lines
// (BenchmarkPrefload/sessions=8/p50 …), so the output concatenates with
// a library bench run and pipes into cmd/benchjson for the committed
// baseline.
//
// With -hotset the mixed rotation is replaced by a hot-set workload:
// each stage builds a pool of distinct preference statements, runs each
// once serially (the cold, cache-miss measurement), then lets the
// sessions draw repeats Zipf-distributed over the pool while a
// -writeratio fraction of operations insert rows — the result cache's
// serving case, where repeats hit memoized maxima and the writes are
// absorbed by incremental maintenance. The report splits cold from warm
// percentiles (BenchmarkPrefloadHotset/sessions=8/warm_p50 …).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
)

// queryMix is the per-session statement rotation: a hard selection, a
// BMO preference query, a ranked TOP-k and (separately dispatched) a
// progressive stream.
var queryMix = []string{
	"SELECT oid FROM car WHERE price <= 40000",
	"SELECT oid FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
	"SELECT oid FROM car PREFERRING RANK(price AROUND 30000, HIGHEST(horsepower)) TOP 10",
}

// streamStmt is the progressive-delivery statement in the mix.
const streamStmt = "SELECT oid FROM car PREFERRING HIGHEST(horsepower) TOP 20"

// benchPrefix names the emitted benchmark family; the -persist leg
// switches it so the disk-backed numbers land as their own baseline
// entries instead of overwriting the in-memory ones.
var benchPrefix = "Prefload"

func main() {
	var (
		addr     = flag.String("addr", "", "server address (empty = start an in-process server over demo data)")
		sessions = flag.String("sessions", "1,8,32", "comma-separated session counts to sweep")
		duration = flag.Duration("duration", 2*time.Second, "measurement window per session count")
		rows     = flag.Int("rows", 5000, "row count for the in-process demo table")
		seed     = flag.Int64("seed", 42, "seed for the demo table")
		shards   = flag.Int("shards", 0, "shard the in-process car table (0 = flat)")
		persist  = flag.Bool("persist", false, "serve the in-process table from a disk-backed store (beyond-RAM leg; bench lines become PrefloadPersist/*)")
		dataDir  = flag.String("data", "", "with -persist: store directory (empty = a temp dir, removed on exit)")
		poolMB   = flag.Int("pool-mb", 4, "with -persist: buffer-pool budget, MiB — size it below the table to exercise paging")
		writers  = flag.Int("writers", 1, "concurrent writer sessions appending rows")
		bench    = flag.Bool("bench", false, "emit go-test-bench formatted lines on stdout")
		hotset   = flag.Bool("hotset", false, "hot-set mode: Zipf-distributed repeat statements (result-cache serving case)")
		hotpool  = flag.Int("hotpool", 8, "distinct statements in the hot-set pool per stage")
		zipfS    = flag.Float64("zipf", 1.3, "Zipf skew for hot-set statement picks (>1)")
		wratio   = flag.Float64("writeratio", 0.1, "fraction of hot-set operations that insert a row instead of querying")
	)
	flag.Parse()

	counts, err := parseCounts(*sessions)
	if err != nil {
		fatal(err)
	}

	target := *addr
	var srv *server.Server
	if target == "" {
		car := workload.Cars(*rows, *seed)
		cat := psql.Catalog{"car": relation.Table(car)}
		if *shards > 0 {
			sh, err := relation.ShardRelation(car, *shards, relation.ByHash("oid"))
			if err != nil {
				fatal(err)
			}
			cat["car"] = sh
		}
		var st *relation.Store
		if *persist {
			benchPrefix = "PrefloadPersist"
			dir := *dataDir
			if dir == "" {
				tmp, err := os.MkdirTemp("", "prefload-store-")
				if err != nil {
					fatal(err)
				}
				defer os.RemoveAll(tmp)
				dir = tmp
			}
			st, err = relation.OpenStore(dir, relation.StoreOptions{PoolBytes: int64(*poolMB) << 20})
			if err != nil {
				fatal(err)
			}
			defer st.Close()
			ptbl, err := st.ImportTable(cat["car"])
			if err != nil {
				fatal(err)
			}
			cat["car"] = ptbl
			segMB := float64(st.Stats().SegmentBytes()) / (1 << 20)
			fmt.Fprintf(os.Stderr, "prefload: persistent car table, %.1f MiB segments vs %d MiB pool\n", segMB, *poolMB)
		}
		srv = server.New(cat, server.Config{MaxInFlight: 64, QueueTimeout: time.Second})
		if st != nil {
			srv.SetStatus(server.StoreStatus(st))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		go srv.Serve(ln)
		target = ln.Addr().String()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}

	// Seed rows for the writers: replayed cyclically as inserts.
	seedRows, err := fetchRows(target, "SELECT * FROM car")
	if err != nil {
		fatal(err)
	}

	for stage, n := range counts {
		if *hotset {
			cold, warm, qps, err := runHotsetStage(target, n, stage, *hotpool, *zipfS, *wratio, *duration, *seed, seedRows)
			if err != nil {
				fatal(err)
			}
			reportHotset(os.Stdout, *bench, n, cold, warm, qps)
			continue
		}
		lat, qps, err := runStage(target, n, *writers, *duration, seedRows)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, *bench, n, lat, qps)
	}
}

// hotsetPool builds the stage's statement pool: distinct AROUND anchors
// give each statement its own result-cache entry (the anchor is part of
// the preference's cache key), and the anchors differ per stage so
// every stage starts cache-cold even though the sweep reuses one
// server. No WHERE clause: a warm repeat then serves entirely from the
// memoized maxima, with no per-query candidate scan.
func hotsetPool(stage, size int) []string {
	pool := make([]string, size)
	for i := range pool {
		anchor := 20000 + stage*5000 + i*250
		pool[i] = fmt.Sprintf(
			"SELECT oid FROM car PREFERRING price AROUND %d AND HIGHEST(horsepower)", anchor)
	}
	return pool
}

// runHotsetStage measures the hot-set workload at n sessions: a serial
// cold pass over the pool (each statement's first, cache-miss
// execution), then n sessions drawing Zipf repeats for d with a wratio
// fraction of operations inserting rows. Returns sorted cold and warm
// latencies plus warm throughput.
func runHotsetStage(addr string, n, stage, poolSize int, zipfS, wratio float64, d time.Duration, seed int64, seedRows []relation.Row) (cold, warm []time.Duration, qps float64, err error) {
	pool := hotsetPool(stage, poolSize)
	c, err := server.Dial(addr)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, stmt := range pool {
		start := time.Now()
		if _, err := c.Query(stmt); err != nil {
			c.Close()
			return nil, nil, 0, err
		}
		cold = append(cold, time.Since(start))
	}
	c.Close()

	var (
		mu   sync.Mutex
		errs []error
	)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed + int64(s)*7919))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1))
			var local []time.Duration
			for time.Now().Before(deadline) {
				if wratio > 0 && len(seedRows) > 0 && rng.Float64() < wratio {
					if _, err := c.Insert("car", seedRows[rng.Intn(len(seedRows))]); err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						return
					}
					continue
				}
				stmt := pool[zipf.Uint64()]
				start := time.Now()
				if _, err := c.Query(stmt); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				local = append(local, time.Since(start))
			}
			mu.Lock()
			warm = append(warm, local...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, nil, 0, errs[0]
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	return cold, warm, float64(len(warm)) / d.Seconds(), nil
}

// reportHotset prints one hot-set stage's cold/warm split.
func reportHotset(w *os.File, bench bool, n int, cold, warm []time.Duration, qps float64) {
	if len(warm) == 0 || len(cold) == 0 {
		fmt.Fprintf(w, "sessions=%d: no hot-set queries completed\n", n)
		return
	}
	cp50 := pct(cold, 50)
	wp50, wp95, wp99 := pct(warm, 50), pct(warm, 95), pct(warm, 99)
	if bench {
		fmt.Fprintf(w, "Benchmark%sHotset/sessions=%d/cold_p50 \t%d\t%d ns/op\n", benchPrefix, n, len(cold), cp50.Nanoseconds())
		fmt.Fprintf(w, "Benchmark%sHotset/sessions=%d/warm_p50 \t%d\t%d ns/op\n", benchPrefix, n, len(warm), wp50.Nanoseconds())
		fmt.Fprintf(w, "Benchmark%sHotset/sessions=%d/warm_p95 \t%d\t%d ns/op\n", benchPrefix, n, len(warm), wp95.Nanoseconds())
		fmt.Fprintf(w, "Benchmark%sHotset/sessions=%d/warm_p99 \t%d\t%d ns/op\n", benchPrefix, n, len(warm), wp99.Nanoseconds())
		return
	}
	fmt.Fprintf(w, "sessions=%d: %d warm queries, %.0f q/s, cold_p50=%v warm p50=%v p95=%v p99=%v (warm/cold %.1fx)\n",
		n, len(warm), qps, cp50, wp50, wp95, wp99, float64(cp50)/float64(wp50))
}

// runStage drives n reader sessions plus the writers for d, returning
// the sorted per-query latencies and the aggregate throughput.
func runStage(addr string, n, writers int, d time.Duration, seedRows []relation.Row) ([]time.Duration, float64, error) {
	var (
		mu   sync.Mutex
		lats []time.Duration
		errs []error
	)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			defer c.Close()
			var local []time.Duration
			for i := 0; time.Now().Before(deadline); i++ {
				start := time.Now()
				var err error
				if pick := (i + s) % (len(queryMix) + 1); pick == len(queryMix) {
					_, _, err = c.Stream(streamStmt, func(relation.Row) bool { return true })
				} else {
					_, err = c.Query(queryMix[pick])
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				local = append(local, time.Since(start))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(s)
	}
	for w := 0; w < writers && len(seedRows) > 0; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				return // writers are load, not measurement
			}
			defer c.Close()
			for i := 0; time.Now().Before(deadline); i++ {
				if _, err := c.Insert("car", seedRows[(i*writers+w)%len(seedRows)]); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, 0, errs[0]
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats, float64(len(lats)) / d.Seconds(), nil
}

// report prints one stage's percentiles, either human- or bench-format.
func report(w *os.File, bench bool, n int, lats []time.Duration, qps float64) {
	if len(lats) == 0 {
		fmt.Fprintf(w, "sessions=%d: no queries completed\n", n)
		return
	}
	p50, p95, p99 := pct(lats, 50), pct(lats, 95), pct(lats, 99)
	if bench {
		// One synthetic benchmark line per percentile: parseable by
		// cmd/benchjson alongside real `go test -bench` output.
		fmt.Fprintf(w, "Benchmark%s/sessions=%d/p50 \t%d\t%d ns/op\n", benchPrefix, n, len(lats), p50.Nanoseconds())
		fmt.Fprintf(w, "Benchmark%s/sessions=%d/p95 \t%d\t%d ns/op\n", benchPrefix, n, len(lats), p95.Nanoseconds())
		fmt.Fprintf(w, "Benchmark%s/sessions=%d/p99 \t%d\t%d ns/op\n", benchPrefix, n, len(lats), p99.Nanoseconds())
		return
	}
	fmt.Fprintf(w, "sessions=%d: %d queries, %.0f q/s, p50=%v p95=%v p99=%v\n",
		n, len(lats), qps, p50, p95, p99)
}

// pct reads the p-th percentile off sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// fetchRows pulls a statement's rows over one short-lived session.
func fetchRows(addr, stmt string) ([]relation.Row, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rs, err := c.Query(stmt)
	if err != nil {
		return nil, err
	}
	return rs.Rows(), nil
}

// parseCounts reads the -sessions sweep list.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("prefload: bad session count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
