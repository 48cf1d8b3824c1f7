package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/resultcache"
	"repro/internal/filter"
	"repro/internal/psql"
	"repro/internal/quality"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/workload"
)

// opClass is the kind of one generated operation; latencies are kept
// per class so a 20 µs cache hit never shares a distribution with a
// 2 ms selection.
type opClass uint8

const (
	classBMO opClass = iota
	classSelect
	classTopK
	classStream
	classInsert
	numClasses
)

var classNames = [numClasses]string{"bmo", "select", "topk", "stream", "insert"}

// op is one generated operation: a statement to query or stream, or a
// row to insert. pool is the hot-pool index of a repeated statement
// (its response is checked against the oracle hash), -1 otherwise.
type op struct {
	class opClass
	stmt  string
	row   relation.Row
	pool  int
}

// dataSeed seeds every table: the data is the same for every --seed, so
// runs differ only in the statement stream the seed draws.
const dataSeed = 20020820

// workloadDef describes one workload: how to build its table, and its
// per-session operation stream as a pure function of (seed, session).
type workloadDef struct {
	name string
	// table is the catalog name the statements select from; writeTable
	// is where inserts go ("" = the same table).
	table      string
	writeTable string
	// rate is the open-loop offered rate in ops/s; nil makes the sessions
	// closed loops.
	rate func(sz *sizes) float64
	// cold marks a stream of unique statements: each replay of the traced
	// pass runs a fresh variant of the statement (literals nudged in the
	// last place), so every replay sees the cache state a statement's
	// first execution sees.
	cold bool
	// readOnly: the stream has no inserts, so the pool statements' oracle
	// results stay valid for the whole window and every response is
	// checked against them.
	readOnly bool
	// sessions is the number of client connections, each driven by one
	// generator goroutine.
	sessions int
	build    func(sz *sizes, dir string) (psql.Catalog, *relation.Store, error)
	pool     func(sz *sizes) []string
	gen      func(sz *sizes, seed int64, session int, rows []relation.Row) func() op
}

// hotPool is the repeated-statement pool: distinct AROUND anchors give
// each statement its own compile- and result-cache entry.
func hotPool(n int) []string {
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("SELECT oid FROM car PREFERRING price AROUND %d AND HIGHEST(horsepower)", 12000+i*500)
	}
	return pool
}

// sessionRNG derives a session's private generator from the run seed.
func sessionRNG(seed int64, session int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(session)*7919 + 17))
}

// freshCar draws an insert payload: a base row's attributes under an oid
// no other generated row has (sessions own disjoint oid ranges).
func freshCar(rng *rand.Rand, rows []relation.Row, session int, counter *int64) relation.Row {
	row := append(relation.Row(nil), rows[rng.Intn(len(rows))]...)
	*counter++
	row[0] = int64(session+1)*100_000_000 + *counter
	return row
}

var workloads = []workloadDef{
	{
		name:     "hotset_read",
		readOnly: true,
		sessions: 2,
		table:    "car",
		build: func(sz *sizes, _ string) (psql.Catalog, *relation.Store, error) {
			return psql.Catalog{"car": workload.Cars(sz.HotRows, dataSeed)}, nil, nil
		},
		pool: func(sz *sizes) []string { return hotPool(sz.HotPool) },
		gen: func(sz *sizes, seed int64, session int, _ []relation.Row) func() op {
			rng := sessionRNG(seed, session)
			pool := hotPool(sz.HotPool)
			zipf := rand.NewZipf(rng, sz.HotZipf, 1, uint64(len(pool)-1))
			return func() op {
				i := int(zipf.Uint64())
				return op{class: classBMO, stmt: pool[i], pool: i}
			}
		},
	},
	{
		name:     "cold_skyline",
		table:    "pts",
		cold:     true,
		readOnly: true,
		sessions: 1,
		build: func(sz *sizes, _ string) (psql.Catalog, *relation.Store, error) {
			flat := workload.Numeric(sz.ColdRows, sz.ColdDims, workload.AntiCorrelated, dataSeed)
			sh, err := relation.ShardRelation(flat, sz.ColdShards,
				relation.ByRange("d1", relation.RangeBounds(flat, "d1", sz.ColdShards)...))
			return psql.Catalog{"pts": sh}, nil, err
		},
		gen: func(_ *sizes, seed int64, session int, _ []relation.Row) func() op {
			rng := sessionRNG(seed, session)
			anchor := func() float64 { return 0.2 + 0.6*rng.Float64() }
			cut := func() float64 { return 0.02 + 0.04*rng.Float64() }
			// Three shapes — a Pareto of two AROUNDs and a LOWEST, and PRIOR TO
			// both ways round — all behind a drawn WHERE cut. Their cost ranges
			// overlap around the median, so cost varies continuously with the
			// draws: the median never sits in a gap between two modes.
			return func() op {
				var stmt string
				switch u := rng.Float64(); {
				case u < 0.4:
					stmt = fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING d1 AROUND %.6f AND d2 AROUND %.6f AND LOWEST(d3)", cut(), anchor(), anchor())
				case u < 0.7:
					stmt = fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING (d1 AROUND %.6f AND LOWEST(d2)) PRIOR TO LOWEST(d3)", cut(), anchor())
				default:
					stmt = fmt.Sprintf("SELECT * FROM pts WHERE d4 <= %.6f PREFERRING LOWEST(d3) PRIOR TO (d1 AROUND %.6f AND LOWEST(d2))", cut(), anchor())
				}
				return op{class: classBMO, stmt: stmt, pool: -1}
			}
		},
	},
	{
		name:  "mixed_rw",
		table: "car",
		// One paced session: a generator waiting for its due time holds the
		// process's one P, so a second one would wait behind it.
		sessions: 1,
		rate:     func(sz *sizes) float64 { return sz.MixedRate },
		build: func(sz *sizes, _ string) (psql.Catalog, *relation.Store, error) {
			return psql.Catalog{"car": workload.Cars(sz.MixedRows, dataSeed)}, nil, nil
		},
		pool: func(sz *sizes) []string { return hotPool(sz.HotPool) },
		gen: func(sz *sizes, seed int64, session int, rows []relation.Row) func() op {
			rng := sessionRNG(seed, session)
			pool := hotPool(sz.HotPool)
			zipf := rand.NewZipf(rng, sz.HotZipf, 1, uint64(len(pool)-1))
			var inserted int64
			return func() op {
				switch u := rng.Float64(); {
				case u < 0.6:
					i := int(zipf.Uint64())
					return op{class: classBMO, stmt: pool[i], pool: i}
				case u < 0.7:
					return op{class: classSelect, pool: -1,
						stmt: fmt.Sprintf("SELECT oid FROM car WHERE price <= %d", 8000+rng.Intn(12000))}
				case u < 0.8:
					return op{class: classTopK, pool: -1,
						stmt: fmt.Sprintf("SELECT oid FROM car PREFERRING RANK(price AROUND %d, HIGHEST(horsepower)) TOP 10", 10000+rng.Intn(40000))}
				case u < 0.9:
					return op{class: classStream, pool: -1,
						stmt: "SELECT oid FROM car PREFERRING HIGHEST(horsepower) TOP 20"}
				}
				return op{class: classInsert, row: freshCar(rng, rows, session, &inserted), pool: -1}
			}
		},
	},
	{
		name: "durable_paged",
		// The statements read one table and the inserts append to another of
		// the same store (one buffer pool, one flush policy): a catalog that
		// is read beside a log that is appended to. On a shared table every
		// insert publishes a generation the next query re-derives everything
		// for, and the caches pin each one; the window then measures that
		// pile-up (the in-memory mixed_rw is the workload for it), not the
		// store.
		table:      "car",
		writeTable: "carlog",
		cold:       true,
		// One connection alternates a reader statement with DurableInserts
		// inserts. Two sessions — a reader beside a paced writer — made the
		// reader's latency depend on which cores the two threads landed on
		// (3.98–5.25 ms between runs of the same code).
		sessions: 1,
		build: func(sz *sizes, dir string) (psql.Catalog, *relation.Store, error) {
			st, err := relation.OpenStore(dir, durableOptions(sz))
			if err != nil {
				return nil, nil, err
			}
			cat := psql.Catalog{}
			for name, rows := range map[string]int{"car": sz.DurableRows, "carlog": sz.DurableLogRows} {
				// The store imports a table under the name it carries.
				flat, err := relation.FromRows(name, workload.CarSchema(), workload.Cars(rows, dataSeed).Rows())
				var sh *relation.Sharded
				if err == nil {
					sh, err = relation.ShardRelation(flat, sz.DurableShards, relation.ByHash("oid"))
				}
				if err == nil {
					cat[name], err = st.ImportTable(sh)
				}
				if err != nil {
					st.Close()
					return nil, nil, err
				}
			}
			return cat, st, nil
		},
		gen: func(sz *sizes, seed int64, session int, rows []relation.Row) func() op {
			rng := sessionRNG(seed, session)
			var inserted int64
			turn := -1
			return func() op {
				if turn = (turn + 1) % (sz.DurableInserts + 1); turn > 0 {
					return op{class: classInsert, row: freshCar(rng, rows, session, &inserted), pool: -1}
				}
				return op{class: classBMO, pool: -1,
					stmt: fmt.Sprintf("SELECT * FROM car WHERE price <= %d PREFERRING mileage AROUND %d AND HIGHEST(horsepower)",
						6000+rng.Intn(6000), rng.Intn(120000))}
			}
		},
	},
}

// insertInto names the table inserts go to.
func (def *workloadDef) insertInto() string {
	if def.writeTable != "" {
		return def.writeTable
	}
	return def.table
}

// durableOptions is the stated flush policy of durable_paged: fsync per
// WAL append, checkpoints by WAL-tail row count.
func durableOptions(sz *sizes) relation.StoreOptions {
	return relation.StoreOptions{
		PoolBytes:      sz.DurablePoolBytes,
		PageBytes:      sz.DurablePageBytes,
		SyncWAL:        true,
		AutoCheckpoint: sz.DurableCheckpoint,
	}
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// instance is one set-up system under test: the table, its store when
// it has one, the in-process server and the connected clients.
type instance struct {
	def      *workloadDef
	cat      psql.Catalog
	table    relation.Table // what the statements select from
	writeTbl relation.Table // what inserts go to (the same table unless the workload says otherwise)
	store    *relation.Store
	storeDir string
	srv      *server.Server
	addr     string
	clients  []*server.Client
	pool     []string
}

// setUp builds the workload's table, starts the server on a loopback
// port, connects the clients and runs every pool statement once, so the
// pool's compile- and result-cache entries exist when set-up returns.
// This is what setup_s times.
func setUp(def *workloadDef, sz *sizes, outDir string) (*instance, error) {
	inst := &instance{def: def}
	if def.name == "durable_paged" {
		dir, err := os.MkdirTemp(outDir, "store-")
		if err != nil {
			return nil, err
		}
		inst.storeDir = dir
	}
	cat, st, err := def.build(sz, inst.storeDir)
	if err != nil {
		inst.tearDown()
		return nil, err
	}
	inst.cat, inst.store = cat, st
	inst.table, inst.writeTbl = cat[def.table], cat[def.insertInto()]
	inst.srv = server.New(cat, server.Config{MaxInFlight: 64, QueueTimeout: time.Second})
	if st != nil {
		inst.srv.SetStatus(server.StoreStatus(st))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inst.tearDown()
		return nil, err
	}
	inst.addr = ln.Addr().String()
	go inst.srv.Serve(ln) // ends in tearDown's Shutdown, which waits for it
	for s := 0; s < def.sessions; s++ {
		c, err := server.Dial(inst.addr)
		if err != nil {
			inst.tearDown()
			return nil, err
		}
		inst.clients = append(inst.clients, c)
	}
	if def.pool != nil {
		inst.pool = def.pool(sz)
		for _, stmt := range inst.pool {
			if _, err := inst.clients[0].Query(stmt); err != nil {
				inst.tearDown()
				return nil, fmt.Errorf("priming %q: %w", stmt, err)
			}
		}
	}
	return inst, nil
}

// flatten returns the table's rows as one flat relation in global
// (shard-major) order.
func flatten(tbl relation.Table) *relation.Relation {
	if sh, ok := tbl.(*relation.Sharded); ok {
		return sh.Flatten()
	}
	return tbl.(*relation.Relation)
}

// payloadRows is the fixed pool of car attributes insert payloads are
// drawn from (each insert takes one and gives it a fresh oid).
var payloadRows = workload.Cars(1024, dataSeed+1).Rows()

// evict releases every cached bound form of the table (compile,
// selection, score and result caches alike).
func evict(tbl relation.Table) {
	switch t := tbl.(type) {
	case *relation.Relation:
		engine.EvictRelation(t)
	case *relation.Sharded:
		engine.EvictSharded(t)
	}
}

// resetCaches empties every process-wide cache, so a repeated set-up
// starts as cold as the first one did.
func resetCaches() {
	engine.ResetCompileCache()
	engine.ResetStreamOrderCache()
	filter.ResetCache()
	resultcache.Reset()
	rank.ResetScoreCache()
	rank.ResetPermCache()
	quality.ResetMeasureCache()
}

// tearDown stops everything setUp started and waits for it: clients,
// the server and its sessions, the store and its directory.
func (inst *instance) tearDown() {
	for _, c := range inst.clients {
		c.Close()
	}
	inst.clients = nil
	if inst.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		inst.srv.Shutdown(ctx)
		cancel()
		inst.srv = nil
	}
	if inst.store != nil {
		inst.store.Close()
		inst.store = nil
	}
	if inst.storeDir != "" {
		os.RemoveAll(inst.storeDir)
	}
	for _, tbl := range inst.cat {
		evict(tbl)
	}
	inst.cat, inst.table, inst.writeTbl = nil, nil, nil
	resetCaches()
	runtime.GC()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
