package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// sizes are the benchmark's fixed dimensions. They are constants of the
// benchmark, not options: a later change is measured against the same
// table sizes, rates and windows as its parent. (BENCHMARK.json's schema
// has no room for them, so they live here.)
type sizes struct {
	// hotset_read
	HotRows int     // flat Cars rows
	HotPool int     // distinct statements; fits every cache cap
	HotZipf float64 // Zipf skew of pool picks

	// cold_skyline
	ColdRows   int // anti-correlated Numeric rows
	ColdDims   int
	ColdShards int // range(d1) shards

	// mixed_rw
	MixedRows int
	// MixedRate is the offered open-loop rate in ops/s (see README.md,
	// "The mixed_rw rate").
	MixedRate float64

	// durable_paged
	DurableRows       int // the table the reader statements query
	DurableLogRows    int // initial rows of the table the inserts append to
	DurableShards     int
	DurablePageBytes  int   // encoded row-page size
	DurablePoolBytes  int64 // ≈1/8 of the row pages
	DurableCheckpoint int   // AutoCheckpoint: WAL tail rows per shard
	// DurableInserts is the number of inserts that follow each reader
	// statement on the workload's one connection: the operation mix is
	// fixed by construction, whatever the sandbox's fsync costs that minute.
	DurableInserts int

	Warmup    time.Duration // unmeasured lead-in before the window
	Slices    int           // time slices of the window (one second each at run_seconds): throughput is read per slice
	SetupReps int           // set-ups per run; setup_s is their median
	TraceOps  int           // statements replayed by the traced pass
	// TraceBudget caps the traced pass's wall time: on the workloads with
	// expensive statements it stops before TraceOps and says how far it got.
	TraceBudget  time.Duration
	OracleSample int // statements per workload checked against the oracle
	NaiveOracle  bool
}

// procs is the GOMAXPROCS every workload runs under: one P for harness
// and server alike (see README.md, "One P"). With two, a request crosses
// threads twice and every hop is a wake-up the hypervisor delivers when
// it pleases: hotset_read runs of the same code read 53 000–71 000 ops/s,
// on one P 61 400–62 900 — the same rate from one core.
const procs = 1

// fullSizes is what `go run ./bench` and the driver measure.
var fullSizes = sizes{
	HotRows: 20000, HotPool: 64, HotZipf: 1.2,
	ColdRows: 20000, ColdDims: 4, ColdShards: 2,
	MixedRows: 20000, MixedRate: 800,
	DurableRows: 50000, DurableLogRows: 10000, DurableShards: 2, DurablePageBytes: 4 << 10,
	DurablePoolBytes: 576 << 10, DurableCheckpoint: 1500, DurableInserts: 4,
	Warmup: 2 * time.Second, Slices: 30, SetupReps: 9,
	TraceOps: 200, TraceBudget: 5 * time.Second, OracleSample: 8,
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root: the working
// directory when run through bench/run.sh, its parent under `go test`.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(doc, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}
