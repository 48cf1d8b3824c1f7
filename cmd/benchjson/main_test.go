package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want result
		ok   bool
	}{
		{"BenchmarkX   \t     100\t  11216 ns/op", result{Name: "BenchmarkX", Iterations: 100, NsPerOp: 11216}, true},
		// The -N procs suffix is part of the name: a capture at another
		// GOMAXPROCS shares no name with a one-P baseline.
		{"BenchmarkX/sub-8   \t     100\t  11216 ns/op", result{Name: "BenchmarkX/sub-8", Iterations: 100, NsPerOp: 11216}, true},
		{"BenchmarkY/n=100-4 \t 3 \t 2.5 ns/op \t 1024 B/op \t 12 allocs/op",
			result{Name: "BenchmarkY/n=100-4", Iterations: 3, NsPerOp: 2.5, BytesPerOp: 1024, AllocsPerOp: 12}, true},
		// A custom metric between ns/op and -benchmem's pair is skipped.
		{"BenchmarkZ \t 7 \t 900 ns/op \t 41.50 pairs/op \t 64 B/op \t 2 allocs/op",
			result{Name: "BenchmarkZ", Iterations: 7, NsPerOp: 900, BytesPerOp: 64, AllocsPerOp: 2}, true},
		// Not result lines: a name printed before a benchmark's log output,
		// a failure, a skip, and a malformed count.
		{"BenchmarkX", result{}, false},
		{"--- FAIL: BenchmarkX", result{}, false},
		{"BenchmarkX \t --- SKIP: BenchmarkX", result{}, false},
		{"BenchmarkX \t many \t 11216 ns/op", result{}, false},
	} {
		got, ok := parseLine(tc.line)
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.00GHz
BenchmarkA-2   	      10	       500 ns/op
BenchmarkB
    bench_test.go:12: log line
BenchmarkB-2   	       5	      1000 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	repro	1.234s
`
	b, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if b.GOOS != "linux" || b.GOARCH != "amd64" || b.CPU != "Some CPU @ 2.00GHz" {
		t.Fatalf("header = %q %q %q", b.GOOS, b.GOARCH, b.CPU)
	}
	if len(b.Results) != 2 || b.Results[0].Name != "BenchmarkA-2" || b.Results[1].Name != "BenchmarkB-2" || b.Results[1].AllocsPerOp != 1 {
		t.Fatalf("results = %+v", b.Results)
	}
}
