// Command mindbench regenerates the paper's tables and figures on the
// simulated substrate and prints them as aligned text tables.
//
// Usage:
//
//	mindbench -exp fig9                # one experiment
//	mindbench -exp all -scale 0.1      # everything, smaller workloads
//	mindbench -list                    # list experiment ids
//
// Scale 1.0 runs paper-shaped workloads (day-long traces, 102-node
// overlays); smaller scales shrink durations and rates proportionally
// while preserving the qualitative shapes. The output is a pure function
// of seed and scale, so two builds' outputs can be diffed directly.
package main

import (
	"flag"
	"fmt"
	"os"

	"mind/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id to run, or 'all'")
		seed  = flag.Int64("seed", 20050405, "deterministic seed")
		scale = flag.Float64("scale", 0.25, "workload scale in (0,1]")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: mindbench -exp <id>|all [-seed N] [-scale F]; -list for ids")
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	failed := 0
	for _, id := range ids {
		rep, err := experiments.Run(id, *seed, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(rep.String())
	}
	if failed > 0 {
		os.Exit(1)
	}
}
