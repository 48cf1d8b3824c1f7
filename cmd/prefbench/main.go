// Command prefbench regenerates the paper's evaluation artifacts: the
// worked Examples 1–11 and the quantitative studies F1–F4 (filter effect,
// BMO result sizes, algorithm crossover, ranked query model). Each report
// states PASS/FAIL against the outcome the paper claims.
//
// Usage:
//
//	prefbench -all
//	prefbench -run E7
//	prefbench -list
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		all  = flag.Bool("all", false, "run every experiment")
		run  = flag.String("run", "", "run one experiment by ID (e.g. E7, F1)")
		list = flag.Bool("list", false, "list experiments")
	)
	flag.Parse()

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *run != "":
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "prefbench: unknown experiment %q (try -list)\n", *run)
			os.Exit(2)
		}
		rep := e.Run()
		fmt.Print(rep)
		if !rep.Pass {
			os.Exit(1)
		}
	case *all:
		failed := 0
		for _, e := range experiments.All() {
			rep := e.Run()
			fmt.Print(rep)
			if !rep.Pass {
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "prefbench: %d experiment(s) failed\n", failed)
			os.Exit(1)
		}
		fmt.Println("all experiments passed")
	default:
		flag.Usage()
		os.Exit(2)
	}
}
