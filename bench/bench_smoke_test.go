package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// toySizes shrinks every table and window so the whole benchmark — four
// workloads, traced pass, oracle, crash image — runs in a few seconds.
// Nothing here asserts a timing.
var toySizes = sizes{
	HotRows: 500, HotPool: 16, HotZipf: 1.2,
	ColdRows: 500, ColdDims: 4, ColdShards: 2,
	MixedRows: 500, MixedRate: 400,
	DurableRows: 500, DurableLogRows: 200, DurableShards: 2, DurablePageBytes: 1 << 10,
	DurablePoolBytes: 8 << 10, DurableCheckpoint: 40, DurableInserts: 4,
	Warmup: 50 * time.Millisecond, Slices: 3, SetupReps: 1,
	TraceOps: 24, TraceBudget: time.Second, OracleSample: 8, NaiveOracle: true,
}

// TestSmoke keeps BENCHMARK.json and the harness from drifting apart:
// every declared metric is emitted exactly once per workload, with the
// declared unit; names and counts stay inside the contract's limits;
// every run is correct; and the trace file is a well-formed span tree.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is outside the contract", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s (s, lower)")
	}
	for _, wl := range spec.Workloads {
		if _, ok := findWorkload(wl.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, the harness has none", wl.Name)
		}
	}

	// Every workload of the harness, the ungated mixed_rw included.
	out := t.TempDir()
	for i := range workloads {
		def := &workloads[i]
		res, err := runWorkload(def, &toySizes, 1, 300*time.Millisecond, true, out)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", def.name, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		checkMetrics(t, def.name, "end-to-end", spec.EndToEnd, res.EndToEnd)
		checkMetrics(t, def.name, "per-layer", spec.PerLayer, res.PerLayer)
		for _, m := range spec.EndToEnd {
			if res.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g, must never be 0", def.name, m.Name, res.EndToEnd[m.Name].Value)
			}
		}
		checkTrace(t, filepath.Join(out, "trace-"+def.name+".json"))
	}
	if leftovers, _ := filepath.Glob(filepath.Join(out, "store-*")); len(leftovers) > 0 {
		t.Errorf("scratch stores left behind: %v", leftovers)
	}
}

func checkMetrics(t *testing.T, workload, kind string, declared []metricSpec, got map[string]metric) {
	t.Helper()
	for _, m := range declared {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared %s metric %s was not emitted", workload, kind, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", workload, m.Name, v.Unit, m.Unit)
		}
	}
	if len(got) != len(declared) {
		for name := range got {
			found := false
			for _, m := range declared {
				found = found || m.Name == name
			}
			if !found {
				t.Errorf("%s: emitted %s metric %s is not declared in BENCHMARK.json", workload, kind, name)
			}
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(doc, &tr); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(tr.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	ids := map[int]span{}
	for _, s := range tr.Spans {
		ids[s.ID] = s
	}
	for _, s := range tr.Spans {
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) has no parent %d", path, s.ID, s.Name, s.Parent)
		} else if p.Op != s.Op {
			t.Errorf("%s: span %d (%s) and its parent belong to different statements", path, s.ID, s.Name)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which is what the driver computes spreads with.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, %g; want 2.75, 5.5, 8.25", q1, q2, q3)
	}
}

// TestVerdict pins the comparison rule: unresolved when a side's spread
// exceeds the bound, regressed when the median worsens beyond it.
func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "x_ops", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{120, 119, 121, 120, 120}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{lower, steady, []float64{70, 130, 100, 160, 90}, "unresolved"},
	}
	if got := verdict(lower, steady, []float64{80, 81, 79, 80, 80}, true); got != "disagree" {
		t.Errorf("A/A verdict of a 20%% better b = %s, want disagree", got)
	}
	for _, c := range cases {
		if got := verdict(c.spec, c.a, c.b, false); got != c.want {
			t.Errorf("verdict(%s, …%v) = %s, want %s", c.spec.Better, c.b, got, c.want)
		}
	}
}
