// Command perfbench is the repository benchmark: one fixed, seeded scenario
// per workload, run against an in-process eipserved (serve.New over a
// registry in a scratch directory, served by net/http on loopback) and
// driven through pkg/client. It checks every output, prints each metric by
// name with its unit, and ends with one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// additionally replays the workload's operations through each module's
// public functions with spans recorded by this package (span.go), and
// prints the per-layer metrics. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: scan, targeted or refresh")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the timed window lasts, in seconds")
	trace := flag.Int("trace", 0, "1 replays the workload through each layer and prints per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	res, err := run(context.Background(), o, defaultSizes(), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
