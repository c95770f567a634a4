// Command apcache-sim runs the paper-reproduction experiments: every figure
// and in-text table of the SIGMOD 2001 performance study has a registered
// experiment id.
//
// Usage:
//
//	apcache-sim -list
//	apcache-sim -experiment fig3 [-quick] [-seed 42]
//	apcache-sim -all [-quick]
package main

import (
	"flag"
	"fmt"
	"os"

	"apcache/internal/study/bench"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments")
		expID = flag.String("experiment", "", "experiment id to run (see -list)")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "shorter runs: same shapes, less precision")
		seed  = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
			fmt.Printf("%-10s   paper: %s\n", "", e.Paper)
		}
	case *all:
		for _, e := range bench.All() {
			if err := runOne(e, bench.Options{Quick: *quick, Seed: *seed}); err != nil {
				fmt.Fprintf(os.Stderr, "apcache-sim: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
	case *expID != "":
		e, ok := bench.Get(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "apcache-sim: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		if err := runOne(e, bench.Options{Quick: *quick, Seed: *seed}); err != nil {
			fmt.Fprintf(os.Stderr, "apcache-sim: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(e *bench.Experiment, opt bench.Options) error {
	fmt.Printf("== %s — %s ==\n", e.ID, e.Title)
	fmt.Printf("paper: %s\n\n", e.Paper)
	rep, err := e.Run(opt)
	if err != nil {
		return err
	}
	for _, tb := range rep.Tables {
		fmt.Println(tb.String())
	}
	for _, ch := range rep.Charts {
		fmt.Println(ch.String())
	}
	for _, n := range rep.Notes {
		fmt.Printf("note: %s\n", n)
	}
	fmt.Println()
	return nil
}
