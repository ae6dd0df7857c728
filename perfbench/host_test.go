package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecord(t *testing.T, dir, name string, r record) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesDifferentSettings(t *testing.T) {
	dir := t.TempDir()
	base := record{
		settings: settings{Host: currentHost(), Workload: "serve-open", Seconds: 20, OfferedRate: 20, LatencyLimitMs: 1000},
		Result:   result{Correct: true, Metrics: map[string]metric{"job_p50_ms": {10, "ms"}}},
	}
	other := base
	other.Host.GOMAXPROCS++
	other.Result = result{Correct: true, Metrics: map[string]metric{"job_p50_ms": {12, "ms"}}}
	a := writeRecord(t, dir, "a.json", base)
	b := writeRecord(t, dir, "b.json", other)

	var out strings.Builder
	if code := compare(&out, a, b); code != 2 || !strings.Contains(out.String(), "gomaxprocs") {
		t.Fatalf("compare across GOMAXPROCS: exit %d, output %q", code, out.String())
	}
	same := other
	same.Host = base.Host
	c := writeRecord(t, dir, "c.json", same)
	out.Reset()
	if code := compare(&out, a, c); code != 0 || !strings.Contains(out.String(), "+20.0%") {
		t.Fatalf("compare on one host: exit %d, output %q", code, out.String())
	}
}

func TestMismatchesNamesEverySetting(t *testing.T) {
	a := settings{Host: currentHost(), Workload: "fleet-sweep", Seconds: 20}
	b := a
	b.Host.CPUModel += "-other"
	b.Host.GoVersion = "go0"
	b.Seconds = 10
	got := strings.Join(mismatches(a, b), "\n")
	for _, want := range []string{"cpu_model", "go_version", "seconds"} {
		if !strings.Contains(got, want) {
			t.Errorf("mismatches missed %s: %s", want, got)
		}
	}
	if ms := mismatches(a, a); len(ms) != 0 {
		t.Errorf("identical settings mismatch: %v", ms)
	}
}
