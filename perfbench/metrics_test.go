package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/server"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileListsTheCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %s %s %s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := f.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %s %s %s", i, e.Name, e.Unit, e.Better, d.name, d.unit, d.better)
		}
	}
	if len(f.Workloads) < 2 {
		t.Errorf("BENCHMARK.json gates %d workloads, want at least 2", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	for _, flag := range []string{"--offered-rate", "--latency-limit-ms"} {
		if !slices.Contains(f.Command, flag) {
			t.Errorf("BENCHMARK.json command does not fix %s", flag)
		}
	}
}

func TestFillReportsEveryCatalogueMetricAndRejectsOthers(t *testing.T) {
	got, err := metricSet{"setup_s": 1.5}.fill(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEnd) || got["setup_s"] != (metric{1.5, "s"}) || got["job_p95_ms"].Unit != "ms" {
		t.Fatalf("fill = %v", got)
	}
	if _, err := (metricSet{"setup_ms": 1}).fill(endToEnd); err == nil {
		t.Fatal("a metric outside the catalogue was accepted")
	}
}

func TestPlanIsSeededAndValid(t *testing.T) {
	a := planOps(7, 30, 20)
	if b := planOps(7, 30, 20); !slices.EqualFunc(a, b, func(x, y plannedOp) bool {
		xb, _ := json.Marshal(x.req)
		yb, _ := json.Marshal(y.req)
		return x.due == y.due && x.op == y.op && x.platform == y.platform && x.serial == y.serial && string(xb) == string(yb)
	}) {
		t.Fatal("the same seed planned different operations")
	}
	if c := planOps(8, 30, 20); c[0].req.Boards[0].Serial == a[0].req.Boards[0].Serial {
		t.Error("a different seed planned the same serials")
	}
	submits, kinds := 0, map[int]int{}
	for i, o := range a {
		if i > 0 && o.due <= a[i-1].due {
			t.Fatalf("op %d due %v, not after op %d", i, o.due, i-1)
		}
		if o.op != "submit" {
			continue
		}
		submits++
		kinds[o.kind]++
		if _, err := server.ExpandBoards(o.req.Boards, 64); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if submits != 200 {
		t.Errorf("%d submits at 30 ops/s for 20 s, want 200", submits)
	}
	if kinds[0] != 140 || kinds[1] != 20 || kinds[2] != 20 || kinds[3] != 20 {
		t.Errorf("kind mix %v, want 140/20/20/20", kinds)
	}
}
