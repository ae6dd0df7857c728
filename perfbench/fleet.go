package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/board"
	"repro/internal/bram"
	"repro/internal/characterize"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/silicon"
)

// fleet-sweep: a closed loop where one caller runs Fleet.RunCampaign back to
// back, each campaign on a fresh fleet of full-size dies.
const (
	// fleetReplicas is the boards per platform in each campaign's fleet.
	fleetReplicas = 2
	// fleetRuns is the read passes per level of sweeps and pattern fills.
	fleetRuns = 20
	// fleetQueries is how many warm-cache re-runs follow each
	// characterization campaign; they are the workload's reads.
	fleetQueries = 64
	// replayBoards is how many boards the traced run replays layer by layer.
	replayBoards = 2
)

// engineKinds is kindNames as engine kinds, in the same cycle order.
var engineKinds = []engine.CampaignKind{
	engine.Characterization, engine.KindThresholds, engine.KindPattern, engine.KindMitigation,
}

// fleetDigests records, for one seed, the SHA-256 of the first cycle's
// campaign results (one campaign per kind). A model change that moves any
// simulated statistic changes it; re-record it when that is intended.
var fleetDigests = map[uint64]string{
	1: "323b7ef4a63ab975d58febeb245a033444e610ef8e95ccf2c7b93364af6b4f64",
}

// fleetInventory returns campaign i's fleet: fleetReplicas full-size dies of
// every platform, serials drawn from (seed, i) alone so any campaign can be
// rebuilt on its own.
func fleetInventory(seed uint64, i int) []platform.Platform {
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	var inv []platform.Platform
	for _, p := range platform.All() {
		for r := 0; r < fleetReplicas; r++ {
			inv = append(inv, p.WithSerial(fmt.Sprintf("pb-%016x", rng.Uint64())))
		}
	}
	return inv
}

func fleetCampaign(kind int) engine.Campaign {
	return engine.Campaign{Kind: engineKinds[kind], Sweep: characterize.Options{Runs: fleetRuns}}
}

// timedEvent is one engine event with its receipt time.
type timedEvent struct {
	ev engine.Event
	at time.Time
}

// collectEvents timestamps every event until ch is closed, then sends the
// whole timeline.
func collectEvents(ch <-chan engine.Event) <-chan []timedEvent {
	out := make(chan []timedEvent, 1)
	go func() {
		var tl []timedEvent
		for ev := range ch {
			tl = append(tl, timedEvent{ev, time.Now()})
		}
		out <- tl
	}()
	return out
}

// gateWait integrates the read gate's queued waiters over time while a
// campaign runs: the result is waiter-time, the total time read workers
// spent queued for a budget unit.
func gateWait(f *engine.Fleet, stop <-chan struct{}) <-chan time.Duration {
	out := make(chan time.Duration, 1)
	go func() {
		var total time.Duration
		last := time.Now()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- total
				return
			case now := <-t.C:
				total += time.Duration(f.ReadGateStats().Waiting) * now.Sub(last)
				last = now
			}
		}
	}()
	return out
}

func runFleetSweep(ctx context.Context, p params) (*outcome, error) {
	oc := &outcome{metrics: metricSet{}, ops: newOpTally()}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	var (
		setup                        []float64
		jobLat, firstLat, queryLat   []float64
		okJobs, jobs                 int
		kindBoards                   = make([]int, len(engineKinds))
		kindTime                     = make([]time.Duration, len(engineKinds))
		sampled                      = make([]*engine.CampaignResult, len(engineKinds))
		cache                        engine.CacheStats
		characterizations, campaigns uint64
		gateTotal                    time.Duration
		tracedBoards, plainBoards    int
		tracedTime, plainTime        time.Duration
	)
	limit := time.Duration(p.latencyLimitMs * float64(time.Millisecond))
	deadline := time.Now().Add(time.Duration(p.seconds) * time.Second)
	for i := 0; ; i++ {
		k := i % len(engineKinds)
		if k == 0 && !time.Now().Before(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A traced run alternates untraced and traced cycles, so its own
		// overhead is measured on the same host in the same minute.
		traced := tr != nil && (i/len(engineKinds))%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		inv := fleetInventory(p.seed, i)
		t0 := time.Now()
		f := engine.NewFleet(inv, engine.Options{Workers: workers()})
		setup = append(setup, time.Since(t0).Seconds())

		// Unbuffered, so each event is timestamped as it is emitted rather
		// than when a backlog drains.
		evs := make(chan engine.Event)
		timeline := collectEvents(evs)
		var stopGate chan struct{}
		var waited <-chan time.Duration
		if traced {
			stopGate = make(chan struct{})
			waited = gateWait(f, stopGate)
		}
		c := fleetCampaign(k)
		c.Events = evs
		res, err := f.RunCampaign(ctx, c)
		end := time.Now()
		close(evs)
		tl := <-timeline
		if stopGate != nil {
			close(stopGate)
			gateTotal += <-waited
		}
		failed := err != nil || res.Agg.Failed > 0 || res.Agg.Completed != len(inv)
		oc.ops.note("campaign", failed)
		if err != nil {
			oc.failf("campaign %d (%s): %v", i, kindNames[k], err)
			continue
		}
		for _, b := range res.Boards {
			if b.Err != nil {
				oc.failf("campaign %d (%s) board %d: %v", i, kindNames[k], b.Board, b.Err)
			}
		}
		if i < len(engineKinds) {
			sampled[k] = res
		}
		kindBoards[k] += res.Agg.Completed
		kindTime[k] += end.Sub(t0)
		if traced {
			tracedBoards += res.Agg.Completed
			tracedTime += end.Sub(t0)
		} else {
			plainBoards += res.Agg.Completed
			plainTime += end.Sub(t0)
		}

		// One board campaign is one job: due when the campaign started,
		// terminal at its done event.
		campaignSpan := tr.record("engine.campaign", fmt.Sprint(i), t0, end)
		starts := make(map[int]time.Time)
		lastLevel := make(map[int]time.Time)
		for _, te := range tl {
			switch te.ev.Kind {
			case engine.EventBoardStart:
				starts[te.ev.Board] = te.at
				lastLevel[te.ev.Board] = te.at
				firstLat = append(firstLat, ms(te.at.Sub(t0)))
			case engine.EventLevel:
				tr.add(span{name: "engine.level." + kindNames[k], job: fmt.Sprint(i), parent: -1,
					start: lastLevel[te.ev.Board], end: te.at})
				lastLevel[te.ev.Board] = te.at
			case engine.EventBoardDone, engine.EventBoardFailed:
				jobs++
				lat := te.at.Sub(t0)
				jobLat = append(jobLat, ms(lat))
				if te.ev.Kind == engine.EventBoardDone && lat <= limit {
					okJobs++
				}
				tr.add(span{name: "engine.board." + kindNames[k], job: fmt.Sprint(i),
					parent: campaignSpan, start: starts[te.ev.Board], end: te.at})
			}
		}

		// Reads: re-run the characterization on the now-warm fleet, which
		// the FVM cache answers without measuring.
		if engineKinds[k] == engine.Characterization {
			for q := 0; q < fleetQueries; q++ {
				qs := time.Now()
				_, err := f.RunCampaign(ctx, fleetCampaign(k))
				queryLat = append(queryLat, ms(time.Since(qs)))
				oc.ops.note("query", err != nil)
				if err != nil {
					oc.failf("warm re-run after campaign %d: %v", i, err)
					break
				}
			}
		}
		st := f.CacheStats()
		cache.Hits += st.Hits
		cache.Misses += st.Misses
		characterizations += f.Characterizations()
		campaigns++
	}
	if tr != nil {
		tr.on.Store(true)
	}

	// Checks run outside the timed window: sampled campaigns against a
	// serial reference, and the recorded digest.
	for k, res := range sampled {
		if res == nil {
			oc.failf("no %s campaign completed", kindNames[k])
			continue
		}
		ref, err := engine.NewFleet(fleetInventory(p.seed, k), engine.Options{Workers: 1, ReadBudget: 1}).
			RunCampaign(ctx, fleetCampaign(k))
		if err != nil {
			return nil, fmt.Errorf("serial reference for %s: %w", kindNames[k], err)
		}
		if !reflect.DeepEqual(res.Agg, ref.Agg) || !reflect.DeepEqual(res.Boards, ref.Boards) {
			oc.failf("%s campaign 0 diverged from its serial reference", kindNames[k])
		}
	}
	if want, ok := fleetDigests[p.seed]; ok && len(oc.errs) == 0 {
		got, err := digest(sampled)
		if err != nil {
			return nil, err
		}
		if got != want {
			oc.failf("seed %d result digest %s, recorded %s", p.seed, got, want)
		}
	}

	m := oc.metrics
	if !p.trace {
		var allBoards int
		var allTime time.Duration
		for k := range engineKinds {
			allBoards += kindBoards[k]
			allTime += kindTime[k]
			m["boards_per_s."+kindNames[k]] = perSecond(kindBoards[k], kindTime[k])
		}
		m["boards_per_s"] = perSecond(allBoards, allTime)
		m["setup_s"] = median(setup)
		m["job_p50_ms"] = quantile(jobLat, 0.50)
		m["job_p95_ms"] = quantile(jobLat, 0.95)
		m["first_event_p50_ms"] = quantile(firstLat, 0.50)
		m["query_p50_ms"] = quantile(queryLat, 0.50)
		m["ok_share"] = share(okJobs, jobs)
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		m["rss_peak_mb"] = rss
		fmt.Fprintf(p.log, "fleet-sweep: %d campaigns; %d board jobs, highest supported percentile p%g; %d reads\n",
			campaigns, jobs, 100*highestPercentile(len(jobLat)), len(queryLat))
		return oc, nil
	}

	inv := fleetInventory(p.seed, 0)
	picks := rand.New(rand.NewPCG(p.seed, 1<<32)).Perm(len(inv))[:replayBoards]
	sample := make([]platform.Platform, len(picks))
	for i, idx := range picks {
		sample[i] = inv[idx]
	}
	if err := replayLayers(ctx, tr, sample, fleetRuns, m); err != nil {
		return nil, err
	}
	spans := byName(tr.snapshot())
	for _, k := range kindNames {
		m["engine.board_ms."+k] = median(spans["engine.board."+k])
	}
	m["engine.level_ms.mitigation"] = median(spans["engine.level.mitigation"])
	busy := 0.0
	for _, k := range kindNames {
		busy += sum(spans["engine.board."+k])
	}
	campaignMs := spans["engine.campaign"]
	if wall := sum(campaignMs); wall > 0 {
		m["engine.worker_busy_share"] = busy / (wall * float64(workers()))
	}
	if n := len(campaignMs); n > 0 {
		m["engine.read_gate_wait_ms"] = ms(gateTotal) / float64(n)
	}
	m["engine.cache_hit_ratio"] = share(int(cache.Hits), int(cache.Hits+cache.Misses))
	m["engine.characterizations"] = float64(characterizations) / float64(max(campaigns, 1))
	m["loadgen.job_samples"] = float64(len(jobLat))
	m["loadgen.query_p95_ms"] = quantile(queryLat, 0.95)
	if tracedBoards > 0 && plainBoards > 0 {
		m["trace.overhead_ratio"] = perSecond(plainBoards, plainTime) / perSecond(tracedBoards, tracedTime)
	}
	attempted, failed, _ := oc.ops.totals()
	m["loadgen.failed_share"] = share(int(failed), int(attempted))
	return oc, nil
}

// replayLayers runs a seeded sample of boards through each inner
// layer's public entry point one layer at a time: die construction, one
// characterization sweep, then — at every level that sweep measured — one
// silicon evaluation pass, one count pass and one full readout pass, and a
// BRAM threshold probe. Call counts come from the sweep result (levels ×
// runs), which is what turns the sweep's time into its self time.
func replayLayers(ctx context.Context, tr *tracer, boards []platform.Platform, runs int, m metricSet) error {
	var passes, levels, sites, faults float64
	for _, p := range boards {
		job := p.Name + "/" + p.Serial
		t := time.Now()
		b := board.New(p)
		tr.record("silicon.die_build", job, t, time.Now())

		t = time.Now()
		sw, err := characterize.Run(ctx, b, characterize.Options{Runs: runs, Workers: 1})
		if err != nil {
			return fmt.Errorf("replay sweep %s: %w", job, err)
		}
		tr.record("characterize.sweep", job, t, time.Now())
		levels += float64(len(sw.Levels))
		for _, lv := range sw.Levels {
			passes += float64(len(lv.RunTotals))
		}

		buf := make([]uint16, bram.Rows)
		var fs []silicon.Fault
		for _, lv := range sw.Levels {
			if err := b.SetVCCBRAM(lv.V); err != nil {
				return err
			}
			run := b.BeginRun()
			t = time.Now()
			if _, _, _, err := b.CountFaultsInto(nil, run); err != nil {
				return err
			}
			tr.record("board.count_pass", job, t, time.Now())

			t = time.Now()
			for s := 0; s < b.Pool.Len(); s++ {
				if err := b.ReadBRAMInto(buf, s, run); err != nil {
					return err
				}
			}
			tr.record("board.readout_pass", job, t, time.Now())

			cond := silicon.Conditions{V: b.VCCBRAM(), TempC: b.OnBoardTempC(), JitterScale: 1, Run: run}
			t = time.Now()
			ev := b.Die.Evaluator(cond)
			for s := 0; s < b.Die.NumSites(); s++ {
				fs = ev.AppendActive(fs[:0], s)
				faults += float64(len(fs))
			}
			tr.record("silicon.eval_pass", job, t, time.Now())
			sites += float64(b.Die.NumSites())
		}
		if err := b.SetVCCBRAM(p.Cal.Vnom); err != nil {
			return err
		}
		t = time.Now()
		if _, err := characterize.DiscoverBRAMThresholds(ctx, b, 0); err != nil {
			return fmt.Errorf("replay threshold probe %s: %w", job, err)
		}
		tr.record("characterize.threshold_probe", job, t, time.Now())
	}
	spans := byName(tr.snapshot())
	n := float64(len(boards))
	m["silicon.die_build_ms"] = mean(spans["silicon.die_build"])
	m["silicon.eval_ns_per_site"] = sum(spans["silicon.eval_pass"]) * 1e6 / sites
	m["silicon.faults_per_site"] = faults / sites
	countPass := mean(spans["board.count_pass"])
	m["board.count_pass_us"] = countPass * 1e3
	m["board.readout_pass_us"] = mean(spans["board.readout_pass"]) * 1e3
	m["board.passes"] = passes / n
	sweep := mean(spans["characterize.sweep"])
	m["characterize.sweep_ms"] = sweep
	m["characterize.levels"] = levels / n
	m["characterize.self_ms"] = sweep - passes/n*countPass
	m["characterize.threshold_probe_ms"] = mean(spans["characterize.threshold_probe"])
	return nil
}

// digest hashes every simulated statistic of the given campaign results.
func digest(results []*engine.CampaignResult) (string, error) {
	b, err := json.Marshal(results)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
