package main

import "fmt"

// collect gathers one end-to-end metric's values per workload.
func collect(f *resultFile, workload, name string) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// worsening is how much b is worse than a as a share of a (negative
// when b is better), by the metric's direction.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict is the comparison rule of the choosing-metrics guide: where
// either side's own run-to-run spread (interquartile distance over its
// median) is wider than the bound the metric cannot resolve a change of
// that size; otherwise b regressed iff its median is worse than a's by
// more than the bound. bothWays also counts b being better by more than
// the bound — between two runs of the same code either is disagreement.
func verdict(spec metricSpec, a, b []float64, bothWays bool) string {
	q1a, meda, q3a := quartiles(a)
	q1b, medb, q3b := quartiles(b)
	worse := worsening(spec, meda, medb)
	if bothWays {
		worse = max(worse, worsening(spec, medb, meda))
	}
	switch spread := max(ratio(q3a-q1a, meda), ratio(q3b-q1b, medb)); {
	case spread > spec.Bound:
		return "unresolved"
	case worse > spec.Bound && bothWays:
		return "disagree"
	case worse > spec.Bound:
		return "regressed"
	}
	return "ok"
}

// gated reports whether BENCHMARK.json names the workload: only those
// count towards a verdict (mixed_rw is run and reported, not gated).
func (spec *benchSpec) gated(name string) bool {
	for _, wl := range spec.Workloads {
		if wl.Name == name {
			return true
		}
	}
	return false
}

// compareTable prints one row per (workload, end-to-end metric) and
// returns how many rows of gated workloads did not come out ok.
func compareTable(spec *benchSpec, a, b *resultFile, bothWays bool) int {
	fmt.Printf("%-14s %-18s %12s %25s %12s %25s %9s %8s  %s\n",
		"workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "bound", "verdict")
	notOK := 0
	for _, wl := range workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := collect(a, wl.name, ms.Name), collect(b, wl.name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, meda, q3a := quartiles(va)
			q1b, medb, q3b := quartiles(vb)
			v := verdict(ms, va, vb, bothWays)
			switch {
			case !spec.gated(wl.name):
				v += " (not gated)"
			case v != "ok":
				notOK++
			}
			fmt.Printf("%-14s %-18s %12.5g %25s %12.5g %25s %9.4f %8.2f  %s\n",
				wl.name, ms.Name, meda, fmt.Sprintf("[%.5g, %.5g]", q1a, q3a), medb, fmt.Sprintf("[%.5g, %.5g]", q1b, q3b),
				ratio(medb, meda), ms.Bound, v)
		}
	}
	return notOK
}

func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a = %s (%d runs), b = %s (%d runs); b/a is b's median over a's (the base)\n", pathA, len(a.Runs), pathB, len(b.Runs))
	compareTable(spec, a, b, false)
	return nil
}

// runAA runs the whole benchmark twice back to back on this binary and
// seed — the second time in reverse workload order — and fails if any
// end-to-end metric disagrees beyond its bound in either direction: the
// benchmark's own check that its bounds mean something.
func runAA(spec *benchSpec, seed int64, seconds int, outDir string) error {
	first, err := runAll(seed, seconds, outDir, false)
	if err != nil {
		return err
	}
	second, err := runAll(seed, seconds, outDir, true)
	if err != nil {
		return err
	}
	a, b := &resultFile{Runs: first}, &resultFile{Runs: second}
	fmt.Println("\nA/A: the same binary and seed, twice")
	bad := compareTable(spec, a, b, true)
	for _, r := range append(first, second...) {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d (workload, metric) pairs disagree beyond their bound", bad)
	}
	return nil
}
