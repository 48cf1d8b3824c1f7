// Command bench is the repository's one benchmark: the served-statement
// benchmark. It builds the tables, starts an in-process server.Server on
// a loopback port, drives four workloads through real TCP and
// internal/wire from this single process, checks the results against an
// independent oracle, and prints every metric by name with its unit.
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "seed of the statement streams (the tables are the same for every seed)")
		out      = flag.String("out", "bench/out/run.json", "result file; runs are appended to it, traces and the scratch store go beside it")
		workload = flag.String("workload", "", "run this workload only and end standard output with its result object (the driver's form)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		aa       = flag.Bool("aa", false, "run the whole benchmark twice on this binary and seed; fail if an end-to-end metric disagrees beyond its bound")
		seconds  = flag.Int("seconds", 0, "measured window per workload in seconds (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "with -workload: 0 prints the end-to-end metrics of an untraced run, 1 adds the traced pass and prints the per-layer metrics")
	)
	flag.Parse()
	if err := run(*seed, *out, *workload, *compare, *aa, *seconds, *trace, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(seed int64, out, workload string, compare, aa bool, seconds, trace int, args []string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("usage: bench -compare a.json b.json")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	window := time.Duration(seconds) * time.Second
	outDir := filepath.Dir(out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	switch {
	case aa:
		return runAA(spec, seed, seconds, outDir)
	case workload != "":
		def, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		printEnv()
		res, err := runWorkload(def, &fullSizes, seed, window, trace == 1, outDir)
		if err != nil {
			return err
		}
		printResult(res)
		if err := appendRuns(out, []*runResult{res}); err != nil {
			return err
		}
		// The driver's contract: the last line of standard output is one
		// JSON object; -trace picks which metric set it carries.
		metrics := res.EndToEnd
		if trace == 1 {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
		return nil
	}
	results, err := runAll(seed, seconds, outDir, false)
	if err != nil {
		return err
	}
	if err := appendRuns(out, results); err != nil {
		return err
	}
	for _, res := range results {
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
	}
	return nil
}

// runAll runs every workload, traced (one run yields both metric sets:
// the end-to-end numbers still come from the untraced window). Each
// workload runs in a process of its own — this binary again, with
// -workload — exactly as the driver runs it: a workload must not inherit
// the heap, the resident set or the warm caches of the one before it.
func runAll(seed int64, seconds int, outDir string, reversed bool) ([]*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	order := make([]*workloadDef, len(workloads))
	for i := range workloads {
		order[i] = &workloads[i]
		if reversed {
			order[i] = &workloads[len(workloads)-1-i]
		}
	}
	var results []*runResult
	for _, def := range order {
		childOut := filepath.Join(outDir, "child-"+def.name+".json")
		os.Remove(childOut)
		cmd := exec.Command(exe, "-workload", def.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "1", "-out", childOut)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // non-zero when the run was incorrect: its result file says how
		f, err := readRuns(childOut)
		os.Remove(childOut)
		if err != nil || len(f.Runs) != 1 {
			return nil, fmt.Errorf("%s: no result from the child run (%v, %v)", def.name, runErr, err)
		}
		results = append(results, f.Runs[0])
	}
	return results, nil
}

// printEnv prints the environment block every run starts with.
func printEnv() {
	model := "unknown"
	if doc, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(doc), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	avx2 := "off"
	if engine.AVX2Enabled() {
		avx2 = "on"
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q avx2=%s\n",
		runtime.NumCPU(), procs, runtime.Version(), model, avx2)
}

// printResult prints every metric of a run by name, with its unit.
func printResult(res *runResult) {
	fmt.Printf("\n== %s  seed=%d window=%gs  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Correct)
	printMetrics := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-36s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics("end-to-end (untraced window):", res.EndToEnd)
	printMetrics("per-layer (counters over the window; spans from the traced pass):", res.PerLayer)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, w := range res.Warnings {
		fmt.Println("  WARNING:", w)
	}
}

// resultFile is the document -out accumulates and -compare reads.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func readRuns(path string) (*resultFile, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(doc, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRuns adds the runs to the result file (creating it), so several
// invocations — other seeds, repeated runs — build up the sample a
// comparison takes its medians and quartiles from.
func appendRuns(path string, runs []*runResult) error {
	f, err := readRuns(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		f = &resultFile{}
	}
	f.Runs = append(f.Runs, runs...)
	doc, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
