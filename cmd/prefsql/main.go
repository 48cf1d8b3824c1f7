// Command prefsql runs Preference SQL queries against CSV tables.
//
// Usage:
//
//	prefsql -data ./tables -e "SELECT * FROM car PREFERRING price AROUND 40000"
//	prefsql -data ./tables            # interactive REPL on stdin
//	prefsql -demo -e "SELECT …"       # built-in synthetic car/trips tables
//
// Every *.csv file in the -data directory becomes a relation named after
// the file. With -demo, synthetic 'car' and 'trips' relations are loaded.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/psql"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	var (
		dataDir = flag.String("data", "", "directory of *.csv tables")
		expr    = flag.String("e", "", "query to execute (omit for a REPL)")
		demo    = flag.Bool("demo", false, "load built-in synthetic car and trips tables")
		algName = flag.String("alg", "auto", "BMO algorithm: "+algNames())
		seed    = flag.Int64("seed", 42, "seed for -demo data")
		rows    = flag.Int("rows", 5000, "row count for -demo data")
	)
	flag.Parse()

	alg, err := parseAlg(*algName)
	if err != nil {
		fatal(err)
	}
	cat := psql.Catalog{}
	if *demo {
		cat["car"] = workload.Cars(*rows, *seed)
		cat["trips"] = workload.Trips(*rows, *seed)
	}
	if *dataDir != "" {
		paths, err := filepath.Glob(filepath.Join(*dataDir, "*.csv"))
		if err != nil {
			fatal(err)
		}
		for _, p := range paths {
			rel, err := relation.LoadCSVFile(p)
			if err != nil {
				fatal(err)
			}
			cat[rel.Name()] = rel
		}
	}
	if len(cat) == 0 {
		fatal(fmt.Errorf("prefsql: no tables loaded; use -data or -demo"))
	}
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, fmt.Sprintf("%s(%d rows)", n, cat[n].Len()))
	}
	fmt.Fprintf(os.Stderr, "tables: %s\n", strings.Join(names, ", "))

	opts := psql.Options{Algorithm: alg}
	if *expr != "" {
		if err := runQuery(*expr, cat, opts); err != nil {
			fatal(err)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(os.Stderr, "prefsql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			fmt.Fprint(os.Stderr, "prefsql> ")
			continue
		}
		if line == "\\q" || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			return
		}
		if err := runQuery(line, cat, opts); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		fmt.Fprint(os.Stderr, "prefsql> ")
	}
}

func runQuery(query string, cat psql.Catalog, opts psql.Options) error {
	res, err := psql.Run(query, cat, opts)
	if err != nil {
		return err
	}
	fmt.Print(res)
	fmt.Printf("(%d rows)\n", res.Len())
	return nil
}

// algorithms lists the BMO algorithms -alg accepts, by their names.
var algorithms = []engine.Algorithm{engine.Auto, engine.Naive, engine.BNL, engine.SFS, engine.Decomposition}

// algNames joins the algorithm names for -alg's help and its errors.
func algNames() string {
	names := make([]string, len(algorithms))
	for i, a := range algorithms {
		names[i] = a.String()
	}
	return strings.Join(names, ", ")
}

func parseAlg(name string) (engine.Algorithm, error) {
	for _, a := range algorithms {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("prefsql: unknown algorithm %q (valid: %s)", name, algNames())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
