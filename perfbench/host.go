package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// hostInfo is recorded with every result: a number means nothing without
// the machine and settings that produced it.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentHost() hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// settings is everything that must match before two records compare.
type settings struct {
	Host           hostInfo `json:"host"`
	Workload       string   `json:"workload"`
	Seconds        int      `json:"seconds"`
	Trace          bool     `json:"trace"`
	OfferedRate    float64  `json:"offered_rate"`
	LatencyLimitMs float64  `json:"latency_limit_ms"`
}

// record is what --out writes: the settings, the seed, the operation
// accounting by type, and the result line.
type record struct {
	settings
	Seed   uint64             `json:"seed"`
	Ops    map[string]opCount `json:"ops"`
	Result result             `json:"result"`
}

// mismatches lists every setting on which a and b differ.
func mismatches(a, b settings) []string {
	var out []string
	diff := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	diff("gomaxprocs", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	diff("num_cpu", a.Host.NumCPU, b.Host.NumCPU)
	diff("cpu_model", a.Host.CPUModel, b.Host.CPUModel)
	diff("go_version", a.Host.GoVersion, b.Host.GoVersion)
	diff("goos/goarch", a.Host.GOOS+"/"+a.Host.GOARCH, b.Host.GOOS+"/"+b.Host.GOARCH)
	diff("workload", a.Workload, b.Workload)
	diff("seconds", a.Seconds, b.Seconds)
	diff("trace", a.Trace, b.Trace)
	diff("offered_rate", a.OfferedRate, b.OfferedRate)
	diff("latency_limit_ms", a.LatencyLimitMs, b.LatencyLimitMs)
	return out
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints each metric's change from the old record to the new one.
// It refuses (exit 2) when the two were recorded under different settings:
// a host or configuration change is not a code change.
func compare(w io.Writer, oldPath, newPath string) int {
	a, err := readRecord(oldPath)
	if err != nil {
		fmt.Fprintln(w, "perfbench compare:", err)
		return 2
	}
	b, err := readRecord(newPath)
	if err != nil {
		fmt.Fprintln(w, "perfbench compare:", err)
		return 2
	}
	if ms := mismatches(a.settings, b.settings); len(ms) > 0 {
		fmt.Fprintln(w, "perfbench compare: refusing to compare results recorded under different settings:")
		for _, m := range ms {
			fmt.Fprintln(w, "  "+m)
		}
		return 2
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x := a.Result.Metrics[n]
		y, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-36s %14.4f %-6s missing in new\n", n, x.Value, x.Unit)
			continue
		}
		delta := "n/a"
		if x.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/math.Abs(x.Value))
		}
		fmt.Fprintf(w, "%-36s %14.4f -> %14.4f %-6s %s\n", n, x.Value, y.Value, x.Unit, delta)
	}
	return 0
}
