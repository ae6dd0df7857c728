// Command perfbench is the repository benchmark: it drives the fleet engine,
// one journaled daemon, and a federation of daemons with seeded inputs,
// checks their outputs, and prints every end-to-end metric (or, traced, every
// per-layer metric) as one JSON line.
//
// Usage:
//
//	perfbench --workload fleet-sweep|serve-open|fed-serve|all --seed N \
//	    --seconds S --trace 0|1 [--offered-rate R] [--latency-limit-ms L] [--out rec.json]
//	perfbench compare old.json new.json
//
// perfbench/run.sh builds it from source and runs it from the repository
// root. The last line of standard output is the result object; the exit code
// is non-zero when any output check failed. --out also writes the host
// record, settings and per-operation accounting, which `compare` reads and
// refuses to diff across different hosts or settings.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params is what every workload receives.
type params struct {
	seed           uint64
	seconds        int
	trace          bool
	offeredRate    float64 // serving workloads: operations sent per second
	latencyLimitMs float64 // a job slower than this counts against ok_share
	workDir        string  // scratch space for stores, removed afterwards
	log            io.Writer
}

// outcome is one workload's measurements and check results.
type outcome struct {
	metrics metricSet
	ops     *opTally
	errs    []string // failed output checks
}

func (o *outcome) failf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

type workload func(ctx context.Context, p params) (*outcome, error)

var workloads = map[string]workload{
	"fleet-sweep": runFleetSweep,
	"serve-open":  func(ctx context.Context, p params) (*outcome, error) { return runServe(ctx, p, false) },
	"fed-serve":   func(ctx context.Context, p params) (*outcome, error) { return runServe(ctx, p, true) },
}

// workDir holds each run's stores, relative to the repository root the
// benchmark runs from; every run removes its own subdirectory.
const workDir = ".bench_build/work"

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"fleet-sweep", "serve-open", "fed-serve"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compare(os.Stdout, os.Args[2], os.Args[3]))
	}
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "fleet-sweep, serve-open, fed-serve, or all")
		seed    = fs.Uint64("seed", 1, "input seed: serials, request bodies and arrival times derive from it")
		seconds = fs.Int("seconds", 30, "measured seconds per workload")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		rate    = fs.Float64("offered-rate", 33, "serving workloads: operations sent per second (open loop), a third of them submits")
		limit   = fs.Float64("latency-limit-ms", 1000, "latency limit a job must meet to count toward ok_share")
		out     = fs.String("out", "", "also write the full record (host, settings, ops) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *rate <= 0 || *limit <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds, --offered-rate and --latency-limit-ms must be positive, --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(workDir, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	host := currentHost()
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	p := params{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		offeredRate: *rate, latencyLimitMs: *limit, workDir: dir, log: stderr,
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	tally := map[string]opCount{}
	for _, n := range names {
		oc, err := workloads[n](ctx, p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		ms, err := oc.metrics.fill(defs)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		attempted, failed, byType := oc.ops.totals()
		report(stderr, n, ms, byType, oc.errs)
		final.Correct = final.Correct && len(oc.errs) == 0
		final.Attempted += attempted
		final.Failed += failed
		for k, m := range ms {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = m
		}
		for k, c := range byType {
			if len(names) > 1 {
				k = n + "/" + k
			}
			tally[k] = c
		}
	}
	if final.Attempted == 0 {
		final.Correct = false
	}
	if *out != "" {
		rec := record{
			settings: settings{Host: host, Workload: *name, Seconds: *seconds, Trace: p.trace,
				OfferedRate: *rate, LatencyLimitMs: *limit},
			Seed: *seed, Ops: tally, Result: final,
		}
		b, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// report prints a human-readable summary of one workload to w.
func report(w io.Writer, name string, ms map[string]metric, ops map[string]opCount, errs []string) {
	fmt.Fprintf(w, "== %s\n", name)
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	types := make([]string, 0, len(ops))
	for k := range ops {
		types = append(types, k)
	}
	sort.Strings(types)
	for _, k := range types {
		fmt.Fprintf(w, "  ops %-10s attempted %6d failed %d\n", k, ops[k].Attempted, ops[k].Failed)
	}
	for _, e := range errs {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
}

// rssPeakMB returns the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workers is the request and board concurrency the benchmark allows itself:
// one per CPU the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }
