// Command perfbench runs one workload of FishStore's repository benchmark
// and prints its result as one JSON line. BENCHMARK.json at the repository
// root declares the workloads and metrics; run.py builds and runs this
// command.
//
//	perfbench --workload retrieve --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"fishstore/perfbench/bench"
)

func main() {
	workload := flag.String("workload", "", "workload: ingest, retrieve or mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	traceOut := flag.String("trace-out", "", "traced run: write spans here as Chrome trace JSON")
	flag.Parse()

	res, err := bench.Run(bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Window:   time.Duration(*seconds * float64(time.Second)),
		Trace:    *traced == 1,
		TraceOut: *traceOut,
		Sizes:    bench.Default(),
		Log:      os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs do not match the oracle")
		os.Exit(1)
	}
}
