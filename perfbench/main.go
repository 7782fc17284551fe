// Command perfbench is the repository benchmark. It brings the programs
// of one workload to a verdict through dlfuzz's public API — the calls
// a user's path makes, in a closed loop from one process — checks every
// verdict against an answer the timed code does not produce, and
// prints the end-to-end metrics (untraced run) or the per-layer
// metrics measured from outside each layer's public calls (traced
// run). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 720, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload corpus|observe|blocking --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --describe > BENCHMARK.json
//
// Exit status: 0 when every verdict is correct, 1 when a verdict failed
// or missed its expected answer, 2 on a usage or set-up error (no
// result is printed then). See README.md for the workloads, the
// metrics and the reasoning behind them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one benchmark run.
type options struct {
	root    string
	seed    int64
	seconds time.Duration
	// workers is the campaign worker count every parallel public call
	// gets: 1, fixed so runs on one host are comparable. One worker
	// leaves the other cores to the Go runtime and to the host, whose
	// load then moves the figures less; the tests also run 2.
	workers int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: corpus, observe or blocking")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", runSeconds, "how long one run measures")
		traced  = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		root    = fs.String("root", ".", "repository root holding testdata/corpus")
		spans   = fs.String("spans", "", "traced run: span file (default .bench_build/spans-WORKLOAD-SEED.jsonl)")
		descr   = fs.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *descr {
		if err := describe(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S>0 --trace 0|1")
		return 2
	}
	o := options{
		root:    *root,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: 1,
	}
	w, err := newWorkload(*name, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	h, err := hostInfo(o, *name, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printJSONLine(stdout, "host", h)

	var res *result
	if *traced == 1 {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed)
		}
		res, err = tracedRun(w, o, path, stdout, stderr)
	} else {
		res, err = timedRun(w, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printJSONLine(stdout, "", res)
	if !res.Correct {
		return 1
	}
	return 0
}

// scalingWorkers is the worker count campaign.scaling compares a serial
// campaign against: nproc.
func scalingWorkers() int { return runtime.NumCPU() }

// printJSONLine prints v as one JSON line, after label when non-empty.
func printJSONLine(w io.Writer, label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // every printed type is plain data
	}
	if label != "" {
		fmt.Fprintf(w, "%s %s\n", label, data)
		return
	}
	fmt.Fprintf(w, "%s\n", data)
}
