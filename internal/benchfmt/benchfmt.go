// Package benchfmt holds the machine-readable benchmark baseline format
// shared by cmd/benchjson (which writes it from `go test -bench` output)
// and cmd/benchdiff (which compares a fresh capture against the
// committed BENCH_BASELINE.json in CI).
package benchfmt

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Baseline is the committed file layout.
type Baseline struct {
	GOOS    string   `json:"goos,omitempty"`
	GOARCH  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// ReadFile loads a baseline JSON file.
func ReadFile(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(data, &b)
	return b, err
}

// Parse reads `go test -bench` text output into a Baseline.
func Parse(r io.Reader) (Baseline, error) {
	var b Baseline
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			b.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			b.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			b.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				b.Results = append(b.Results, r)
			}
		}
	}
	return b, sc.Err()
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkX/sub-8   	     100	  11216 ns/op	  1024 B/op	  12 allocs/op
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true
}

// ByName indexes the results by benchmark name. Duplicate names (the
// same benchmark appearing twice in a capture) keep the first entry.
func (b Baseline) ByName() map[string]Result {
	out := make(map[string]Result, len(b.Results))
	for _, r := range b.Results {
		if _, dup := out[r.Name]; !dup {
			out[r.Name] = r
		}
	}
	return out
}
