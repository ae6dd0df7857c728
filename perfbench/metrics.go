package main

import (
	"fmt"
	"sort"
	"sync"
)

// metricDef names one reported metric. The catalogues below are the single
// list BENCHMARK.json mirrors; a test holds the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// kindNames are the campaign kinds every workload runs, in cycle order, by
// the short name their metrics carry.
var kindNames = []string{"characterization", "thresholds", "pattern", "mitigation"}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md gives each its meaning per workload.
var endToEnd = func() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower"},
		{"boards_per_s", "1/s", "higher"},
	}
	for _, k := range kindNames {
		defs = append(defs, metricDef{"boards_per_s." + k, "1/s", "higher"})
	}
	return append(defs,
		metricDef{"job_p50_ms", "ms", "lower"},
		metricDef{"job_p95_ms", "ms", "lower"},
		metricDef{"first_event_p50_ms", "ms", "lower"},
		metricDef{"query_p50_ms", "ms", "lower"},
		metricDef{"ok_share", "share", "higher"},
		metricDef{"rss_peak_mb", "MB", "lower"},
	)
}()

// hopCalls classifies coordinator→daemon requests for fed.hop_ms.<call>.
var hopCalls = []string{"submit", "status", "events", "health", "query"}

// queryKinds are the read endpoints the serving workloads mix in.
var queryKinds = []string{"status", "vmin", "fvms"}

// perLayer is what the traced run reports. A layer a workload does not
// reach reports 0 (no calls), which is the prediction, not a gap.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"silicon.die_build_ms", "ms", "lower"},
		{"silicon.eval_ns_per_site", "ns", "lower"},
		{"silicon.faults_per_site", "count", "lower"},
		{"board.count_pass_us", "us", "lower"},
		{"board.readout_pass_us", "us", "lower"},
		{"board.passes", "count", "lower"},
		{"characterize.sweep_ms", "ms", "lower"},
		{"characterize.levels", "count", "lower"},
		{"characterize.self_ms", "ms", "lower"},
		{"characterize.threshold_probe_ms", "ms", "lower"},
	}
	for _, k := range kindNames {
		defs = append(defs, metricDef{"engine.board_ms." + k, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"engine.level_ms.mitigation", "ms", "lower"},
		metricDef{"engine.read_gate_wait_ms", "ms", "lower"},
		metricDef{"engine.worker_busy_share", "share", "higher"},
		metricDef{"engine.cache_hit_ratio", "share", "higher"},
		metricDef{"engine.characterizations", "count", "lower"},
		metricDef{"store.append_us", "us", "lower"},
		metricDef{"store.putjob_us", "us", "lower"},
		metricDef{"store.put_ms", "ms", "lower"},
		metricDef{"store.get_us", "us", "lower"},
		metricDef{"store.list_us", "us", "lower"},
		metricDef{"store.journal_bytes_per_event", "B", "lower"},
		metricDef{"store.replay_ms", "ms", "lower"},
		metricDef{"store.errors", "count", "lower"},
		metricDef{"server.submit_ms", "ms", "lower"},
		metricDef{"server.queue_wait_ms", "ms", "lower"},
		metricDef{"server.compute_ms", "ms", "lower"},
		metricDef{"server.deliver_ms", "ms", "lower"},
	)
	for _, q := range queryKinds {
		defs = append(defs, metricDef{"server.query_ms." + q, "ms", "lower"})
	}
	defs = append(defs, metricDef{"server.refused", "count", "lower"})
	for _, c := range hopCalls {
		defs = append(defs, metricDef{"fed.hop_ms." + c, "ms", "lower"})
	}
	return append(defs,
		metricDef{"fed.hop_calls", "count", "lower"},
		metricDef{"fed.hop_failed", "count", "lower"},
		metricDef{"fed.overhead_ms", "ms", "lower"},
		metricDef{"fed.shard_balance", "share", "higher"},
		metricDef{"fed.stolen", "count", "lower"},
		metricDef{"loadgen.query_p95_ms", "ms", "lower"},
		metricDef{"loadgen.late_p95_ms", "ms", "lower"},
		metricDef{"loadgen.backlog_end", "count", "lower"},
		metricDef{"loadgen.job_samples", "count", "higher"},
		metricDef{"loadgen.failed_share", "share", "lower"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
	)
}()

// metric is one reported value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's values by name; fill completes it against a
// catalogue so every listed metric is printed.
type metricSet map[string]float64

// fill returns the catalogue's metrics with their units. A catalogue metric
// the workload did not set is 0; a set metric outside the catalogue is an
// error, so a typo cannot silently drop a number.
func (m metricSet) fill(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	var extra []string
	for name := range m {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the catalogue: %v", extra)
	}
	return out, nil
}

// opTally counts attempted and failed operations by type (submit, query,
// stream, campaign, ...). It is safe for concurrent use.
type opTally struct {
	mu sync.Mutex
	m  map[string]*opCount
}

type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

func newOpTally() *opTally { return &opTally{m: make(map[string]*opCount)} }

// note records one operation of the given type.
func (t *opTally) note(op string, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.m[op]
	if c == nil {
		c = &opCount{}
		t.m[op] = c
	}
	c.Attempted++
	if failed {
		c.Failed++
	}
}

// totals returns the counts summed over every type, plus a copy by type.
func (t *opTally) totals() (attempted, failed int64, byType map[string]opCount) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byType = make(map[string]opCount, len(t.m))
	for k, c := range t.m {
		attempted += c.Attempted
		failed += c.Failed
		byType[k] = *c
	}
	return attempted, failed, byType
}
