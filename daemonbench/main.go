// Command daemonbench is the repository's end-to-end benchmark: it drives
// the in-process sheriffd loop — sim.BuildRuntime + ingest.FromCluster,
// then per period traces.Source.Next → ingest.OfferBatch →
// ProcessPending → Poll → runtime.StepExternal — on a fixed workload,
// checks the outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, from a traced daemon. See README.md.
//
// Usage:
//
//	daemonbench -workload steady|storm|alertfree -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
	}
	os.Exit(code)
}

// run parses the flags, runs the benchmark and prints its result. It
// returns 2 for bad usage, 1 for a failed run or output check, else 0.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("daemonbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady, storm or alertfree")
	seed := fs.Int64("seed", 1, "trace-generator seed for the offered profiles")
	seconds := fs.Float64("seconds", 10, "timed step budget, in seconds at the workload's nominal step rate")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced daemon run beside an untraced one")
	outDir := fs.String("out", filepath.Join(".bench_build", "daemonbench"), "directory for the run record and spans")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("want -seconds > 0 and -trace 0 or 1, got %v and %d", *seconds, *trace)
	}
	// One P and one shard unless GOMAXPROCS is set. On a shared 2-vCPU
	// host, keeping both vCPUs busy draws hypervisor CPU steal of about a
	// fifth in contention episodes, and the shard barriers amplify it:
	// alertfree's p50 went from 5.9 to 10.4 ms and storm's from 34 to
	// 48 ms, while single-P runs moved about a tenth. Set GOMAXPROCS (at
	// most the core count) to measure shard scaling.
	procs := 1
	if _, ok := os.LookupEnv("GOMAXPROCS"); ok {
		procs = min(goruntime.GOMAXPROCS(0), goruntime.NumCPU())
	}
	goruntime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 1, err
	}
	rep, err := bench(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir})
	if err != nil {
		return 1, err
	}
	rep.print(out)
	if !rep.Correct {
		return 1, fmt.Errorf("%s: output check failed: %v", w.name, rep.Failures)
	}
	return 0, nil
}

// print writes the human-readable lines, then the result object last.
func (r *report) print(out io.Writer) {
	prov, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(out, "provenance %s\n", prov)
	for _, c := range r.Checks {
		fmt.Fprintf(out, "check %s\n", c)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "failed_frac %g (%d of %d updates)\n", r.failedFrac(), r.Failed, r.Attempted)
	if r.Record != "" {
		fmt.Fprintf(out, "record %s\n", r.Record)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		res.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}
