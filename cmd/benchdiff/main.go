// Command benchdiff compares a fresh benchmark JSON capture against the
// committed baseline (BENCH_BASELINE.json) and exits non-zero when any
// tracked benchmark slowed down beyond the threshold — the trend report
// CI prints into the job summary (as a non-failing step: on a shared
// runner the threshold is not decidable run-to-run):
//
//	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -current bench-gate.json
//
// (wired up as `make benchdiff`).
//
// Both captures must come from a real benchtime run (not -benchtime 1x:
// single-iteration timings are cold-start numbers that compare several
// times high against a warm baseline).
//
// Tracked means present in BOTH files with a baseline timing of at least
// -min-ns: benchmarks new in the current capture have no baseline to
// regress against, and sub-millisecond timings swing several-fold inside
// a full-suite run (GC debt from neighboring benchmarks), so a ratio on
// them is noise, not signal.
//
// A full-suite capture still carries enough cross-benchmark interference
// to push an occasional healthy benchmark past the threshold, so flagged
// benchmarks are not failed immediately: each one is re-run by itself
// (`go test -bench '^Name$'` at -confirm-benchtime) and only fails the
// gate if the isolated timing still exceeds the threshold. Disable with
// -confirm=false when the current capture is already trusted.
// Benchmarks that disappeared from the current capture are reported as a
// warning (renames happen) but do not fail the gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	baselinePath := flag.String("baseline", "", "committed baseline JSON (required)")
	currentPath := flag.String("current", "", "fresh capture JSON (required)")
	threshold := flag.Float64("threshold", 1.5, "fail when current/baseline ns/op exceeds this ratio")
	minNs := flag.Float64("min-ns", 1000000, "ignore benchmarks whose baseline ns/op is below this")
	confirm := flag.Bool("confirm", true, "re-run flagged benchmarks in isolation before failing")
	confirmTime := flag.String("confirm-benchtime", "0.5s", "-benchtime for confirmation re-runs")
	confirmPkg := flag.String("confirm-pkg", "./...", "package pattern for confirmation re-runs")
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := benchfmt.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := benchfmt.ReadFile(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	curBy := cur.ByName()

	type row struct {
		name       string
		base, cur  float64
		ratio      float64
		regression bool
	}
	var rows []row
	var missing []string
	newCount := len(curBy)
	for _, b := range base.Results {
		c, ok := curBy[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		newCount--
		if b.NsPerOp < *minNs || b.NsPerOp == 0 {
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		rows = append(rows, row{b.Name, b.NsPerOp, c.NsPerOp, ratio, ratio > *threshold})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ratio > rows[j].ratio })

	failed := 0
	for i := range rows {
		r := &rows[i]
		if r.regression && *confirm {
			ns, ok := rerun(r.name, *confirmTime, *confirmPkg)
			if ok {
				fmt.Printf("   confirm %-55s %12.0f -> %12.0f ns/op isolated (%.2fx)\n",
					r.name, r.cur, ns, ns/r.base)
				r.cur = ns
				r.ratio = ns / r.base
				r.regression = r.ratio > *threshold
			} else {
				fmt.Printf("   confirm %-55s re-run produced no result; keeping suite timing\n", r.name)
			}
		}
		mark := "  "
		if r.regression {
			mark = "!!"
			failed++
		}
		fmt.Printf("%s %-60s %12.0f -> %12.0f ns/op  (%.2fx)\n", mark, r.name, r.base, r.cur, r.ratio)
	}
	fmt.Printf("benchdiff: %d tracked, %d new in current, %d missing from current (threshold %.2fx, min %.0f ns)\n",
		len(rows), newCount, len(missing), *threshold, *minNs)
	for _, name := range missing {
		fmt.Printf("benchdiff: warning: %s present in baseline but not in current capture\n", name)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed beyond %.2fx\n", failed, *threshold)
		os.Exit(1)
	}
}

// rerun runs one benchmark by itself and returns its isolated ns/op.
// The -bench expression anchors every slash-separated segment, so
// exactly the flagged (sub-)benchmark runs.
func rerun(name, benchtime, pkg string) (float64, bool) {
	segs := strings.Split(name, "/")
	for i, s := range segs {
		segs[i] = "^" + regexp.QuoteMeta(s) + "$"
	}
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", strings.Join(segs, "/"), "-benchtime", benchtime, pkg)
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: confirmation re-run of %s failed: %v\n", name, err)
		return 0, false
	}
	parsed, err := benchfmt.Parse(strings.NewReader(string(out)))
	if err != nil {
		return 0, false
	}
	for _, r := range parsed.Results {
		// The capture may stem from one P (no suffix) while this re-run
		// sees several: go test then appends "-N" to the name.
		if r.Name == name || procsSuffix.ReplaceAllString(r.Name, "") == name {
			return r.NsPerOp, true
		}
	}
	return 0, false
}

// procsSuffix matches the "-GOMAXPROCS" suffix go test appends to
// benchmark names when it runs on more than one P.
var procsSuffix = regexp.MustCompile(`-\d+$`)
