// Command benchjson runs the repository's benchmark suite and writes the
// parsed results as a JSON baseline (BENCH_<label>.json by default), so the
// performance trajectory of the hot paths can be tracked PR over PR and
// compared mechanically instead of by eyeballing `go test -bench` output.
//
// Usage:
//
//	go run ./cmd/benchjson -label pr4 -bench 'FullPool|Fig03' -benchtime 2s
//	make bench-json LABEL=pr4
//
// The output schema is one object per benchmark with every reported metric
// (ns/op, B/op, allocs/op, MB/s, and custom b.ReportMetric units) keyed by
// unit.
//
// Compare mode diffs two baselines and exits non-zero when any benchmark
// regressed by more than the threshold — the CI gate that keeps committed
// baselines honest:
//
//	go run ./cmd/benchjson -compare BENCH_pr10.json BENCH_new.json -threshold 30
//	make bench-compare
//
// Only regressions on the compared metric (default ns/op) fail; new
// benchmarks are ignored and ones missing from the new baseline are
// reported as warnings.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's report. With -count > 1, repeated runs of the
// same benchmark are folded into a single entry (per-metric median, summed
// iterations, Samples recording the run count), so consumers can always key
// results by name.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Samples int                `json:"samples,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// Baseline is the file-level schema.
type Baseline struct {
	Label     string   `json:"label"`
	Goos      string   `json:"goos,omitempty"`
	Goarch    string   `json:"goarch,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func main() {
	// Compare mode is dispatched before flag.Parse so the documented
	// invocation shape — `-compare old.json new.json [-threshold pct]` —
	// works as written (the flag package would stop flag scanning at the
	// first positional argument).
	for _, a := range os.Args[1:] {
		if a == "-compare" || a == "--compare" {
			os.Exit(runCompare(os.Args[1:], os.Stdout))
		}
	}
	label := flag.String("label", "local", "baseline label; also names the default output file")
	bench := flag.String("bench", ".", "benchmark selector passed to -bench")
	benchtime := flag.String("benchtime", "1x", "passed to -benchtime")
	count := flag.Int("count", 1, "passed to -count")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "", "output path (default BENCH_<label>.json)")
	flag.Parse()

	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	args := []string{"test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), "-benchmem", *pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	base := Baseline{Label: *label, Bench: *bench, Benchtime: *benchtime}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			base.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			base.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			base.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				base.Results = append(base.Results, r)
			}
		}
	}
	if len(base.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks matched")
		os.Exit(1)
	}
	base.Results = foldRepeats(base.Results)
	blob, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(base.Results), path)
}

// foldRepeats merges repeated entries of one benchmark (from -count > 1)
// into a single Result per name, preserving first-seen order: metrics take
// the per-metric median across runs, iterations are summed, and Samples
// records how many runs were folded.
func foldRepeats(results []Result) []Result {
	byName := make(map[string][]Result, len(results))
	var order []string
	for _, r := range results {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		folded := Result{Name: name, Samples: len(runs), Metrics: make(map[string]float64)}
		byUnit := make(map[string][]float64)
		for _, r := range runs {
			folded.Iters += r.Iters
			for unit, v := range r.Metrics {
				byUnit[unit] = append(byUnit[unit], v)
			}
		}
		for unit, vs := range byUnit {
			sort.Float64s(vs)
			mid := len(vs) / 2
			if len(vs)%2 == 0 {
				folded.Metrics[unit] = (vs[mid-1] + vs[mid]) / 2
			} else {
				folded.Metrics[unit] = vs[mid]
			}
		}
		out = append(out, folded)
	}
	return out
}

// parseBenchLine parses one testing output line of the shape
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   2 allocs/op   3.14 custom-unit
//
// into a Result. Metric values and units come in pairs after the iteration
// count.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix testing appends.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: strings.TrimPrefix(name, "Benchmark"), Iters: iters,
		Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
