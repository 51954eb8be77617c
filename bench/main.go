// Command bench is the repository's benchmark: one invocation runs one
// workload once and prints every metric of its mode by name and unit, then
// one JSON result line. See README.md in this directory and BENCHMARK.json
// at the repository root.
//
// The engine is driven from outside only: through the cep2asp facade for
// whole jobs and through exported functions of internal/* for the
// single-layer probes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var cfg config
	name := flag.String("workload", "", "workload to run: seq_filter, iter_join, iter_nfa or seq3_interval")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "seconds the measured phases take together")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, nothing attached; 1: per-layer metrics and bench/out/<workload>.spans.json")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/32 of the events and one pass per phase (what the tests run)")
	flag.Int64Var(&cfg.expectUnique, "expect-unique", -1, "hold every full pass to this unique-match count instead of the first pass's")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil || flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench -workload <name> [-seed n] [-seconds s] [-trace 0|1]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg.workload = w
	cfg.trace = *trace != 0
	cfg.log = os.Stderr
	cfg.outDir = "bench/out"

	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
