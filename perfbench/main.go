// Command perfbench is the simulator's benchmark. It runs one of four
// workloads — fig2, fig2-guarded, micro, smp-storm — pass after pass
// through the public bench, platform, kvm, workload and trace APIs,
// checks every cell's simulated outputs against the committed digests,
// and prints one JSON line: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). BENCHMARK.json at the
// repository root is the metric contract; metrics.go maps each layer to
// the end-to-end metric it moves.
//
// Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload fig2 --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the cell order within each pass")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/run", "directory for checkpoint stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(o.workload)
	if w == nil || fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s) and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	o.trace = *traceFlag == 1
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
