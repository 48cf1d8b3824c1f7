// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark baseline on stdout, the format committed as BENCH_BASELINE.json
// so the perf trajectory of the repository is tracked in-tree:
//
//	go test -run xxx -bench . -benchmem ./... | go run ./cmd/benchjson > BENCH_BASELINE.json
//
// (wired up as `make bench-json`).
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	b, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
