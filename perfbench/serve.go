package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/characterize"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/store"
)

// serve-open and fed-serve: an open loop of submits and reads at a fixed
// offered rate against one journaled daemon, or against a coordinator in
// front of two, all in this process over loopback.
const (
	jobBoardCount = 4  // boards per job, on both serving workloads
	serveBRAMs    = 40 // BRAMs per served board
	serveRuns     = 4  // read passes per level
	// hotPerPlatform serials per platform are characterized in the
	// preloaded journal; hotShare of characterization boards draw from them
	// and hit the warm FVM cache, the rest are fresh dies that miss.
	hotPerPlatform = 4
	hotShare       = 0.5
	preloadJobs    = 240 // jobs in the journal the daemons boot over
	boots          = 9   // boots timed for setup_s; the last one serves
	daemonQueue    = 64
	// warmEvents is how many events each node streams before measurement:
	// more than the default 8192-event firehose window holds.
	warmEvents    = 8500
	warmBatch     = 4 // mitigation jobs per warm-up round, ~800 events
	maxWarmRounds = 128
	drainTimeout  = 60 * time.Second
	// traceWindow alternates traced and untraced stretches of a traced run.
	traceWindow = time.Second
)

// opCycle is the fixed operation mix: a third submits, two thirds reads.
var opCycle = []string{"submit", "status", "vmin", "submit", "fvms", "status", "submit", "vmin", "fvms"}

// kindCycle is the fixed kind mix of submits, as indices into kindNames:
// mostly characterization.
var kindCycle = []int{0, 0, 0, 1, 0, 0, 2, 0, 0, 3}

// plannedOp is one generated operation of the open loop.
type plannedOp struct {
	due      time.Duration
	op       string
	kind     int                    // submit: index into kindNames
	req      server.CampaignRequest // submit
	platform string                 // vmin, fvms filters
	serial   string                 // fvms filter
}

// hotSerial names hot-pool board n of a platform for a seed.
func hotSerial(seed uint64, n int) string { return fmt.Sprintf("hot-%x-%d", seed, n) }

// jobBoards draws one job's boards: platforms rotate from a seeded start,
// and a characterization board is a hot-pool die with probability hotShare.
// No die is enrolled twice in one job.
func jobBoards(rng *rand.Rand, seed uint64, n int, char bool) []server.BoardSpec {
	all := platform.All()
	first := rng.IntN(len(all))
	hot := make(map[string][]int) // platform → unused hot indices, shuffled
	specs := make([]server.BoardSpec, n)
	for j := range specs {
		p := all[(first+j)%len(all)].Name
		serial := fmt.Sprintf("pb-%016x", rng.Uint64())
		if char && rng.Float64() < hotShare {
			if _, ok := hot[p]; !ok {
				hot[p] = rng.Perm(hotPerPlatform)
			}
			if idx := hot[p]; len(idx) > 0 {
				serial = hotSerial(seed, idx[0])
				hot[p] = idx[1:]
			}
		}
		specs[j] = server.BoardSpec{Platform: p, Serial: serial, Replicas: 1, BRAMs: serveBRAMs}
	}
	return specs
}

// serveLadder is the served mitigation jobs' voltage ladder: six levels
// from above Vmin to the highest Vcrash of the four platforms, so every
// board runs all six and a job stays small.
var serveLadder = []float64{0.70, 0.64, 0.61, 0.59, 0.57, 0.55}

// jobRequest builds a served job. A mitigation job on the full default
// ladder (nominal down to Vcrash, about 46 levels) is warmUp's alone.
func jobRequest(kind int, boards []server.BoardSpec) server.CampaignRequest {
	if engineKinds[kind] == engine.KindMitigation {
		return server.NewMitigationRequest(boards, server.MitigationSpec{Voltages: serveLadder})
	}
	req := server.CampaignRequest{Kind: engineKinds[kind].String(), Boards: boards}
	if engineKinds[kind] != engine.KindThresholds {
		req.Runs = serveRuns
	}
	return req
}

// planOps generates the run's operations from the seed: op i is due at
// (i+u)/rate seconds, u uniform in [0,1), so arrivals keep the offered rate
// with a seeded phase.
func planOps(seed uint64, rate float64, seconds int) []plannedOp {
	n := int(math.Ceil(rate * float64(seconds)))
	ops := make([]plannedOp, n)
	submits := 0
	for i := range ops {
		rng := rand.New(rand.NewPCG(seed, 1<<40+uint64(i)))
		o := plannedOp{
			due: time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second)),
			op:  opCycle[i%len(opCycle)],
		}
		all := platform.All()
		o.platform = all[rng.IntN(len(all))].Name
		o.serial = hotSerial(seed, rng.IntN(hotPerPlatform))
		if o.op == "submit" {
			o.kind = kindCycle[submits%len(kindCycle)]
			submits++
			o.req = jobRequest(o.kind, jobBoards(rng, seed, jobBoardCount, o.kind == 0))
		}
		ops[i] = o
	}
	return ops
}

// preloadOps are the characterization jobs over the hot pool that fill the
// journal the measured boots replay.
func preloadOps(seed uint64) []server.CampaignRequest {
	reqs := make([]server.CampaignRequest, preloadJobs)
	for i := range reqs {
		rng := rand.New(rand.NewPCG(seed, 1<<50+uint64(i)))
		all := platform.All()
		first := rng.IntN(len(all))
		specs := make([]server.BoardSpec, jobBoardCount)
		for j := range specs {
			specs[j] = server.BoardSpec{
				Platform: all[(first+j)%len(all)].Name,
				Serial:   hotSerial(seed, (i+j/len(all))%hotPerPlatform),
				Replicas: 1, BRAMs: serveBRAMs,
			}
		}
		reqs[i] = jobRequest(0, specs)
	}
	return reqs
}

// topology is one booted serving stack: the front door the load talks to
// and everything behind it.
type topology struct {
	front   *server.Client
	daemons []*server.Client // fed-serve: each daemon, for its own job records
	nodes   []store.Store    // every node's store, undecorated; the front's last
	disks   []*store.Disk
	stores  []*timedStore   // traced: the decorators handed to the nodes
	hop     *timedTransport // traced fed-serve: coordinator→daemon calls
	stops   []func(context.Context)
}

// stop tears the stack down in reverse start order: the front door first,
// each service before the store under it.
func (t *topology) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i](ctx)
	}
	t.stops = nil
}

// serveHTTP serves h on a loopback port. The returned stop shuts the
// service down first (which releases its SSE streams) and then the HTTP
// server, and returns once both have finished.
func serveHTTP(h http.Handler, shutdown func(context.Context) error) (string, func(context.Context), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	stop := func(ctx context.Context) {
		shutdown(ctx)
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	}
	return ln.Addr().String(), stop, nil
}

// clientTransport is the load generator's own connection pool: one
// connection per sender plus the firehose subscription.
func clientTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = workers() + 1
	t.MaxIdleConnsPerHost = workers() + 1
	return t
}

// boot opens the front door's disk store under dir and starts the stack
// over it. A federated stack (daemons non-nil) puts a daemon in front of each
// of the given memory stores, which outlive the boot as a daemon's disk
// would, so only the coordinator's journal is on disk, as in the
// fpgavoltd-loadgen federation. It names its daemons http://daemon-N and
// resolves the names in the coordinator's dialer, so sharding, which hashes
// daemon names, is the same on every boot and every host.
func boot(dir string, daemons []*store.Mem, tr *tracer) (*topology, error) {
	t := &topology{}
	// Only disk stores are decorated: the store layer's figures are the
	// journal's.
	open := func(name string) (store.Store, error) {
		d, err := store.OpenDisk(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		t.nodes = append(t.nodes, d)
		t.disks = append(t.disks, d)
		t.stops = append(t.stops, func(context.Context) { d.Close() })
		if tr == nil {
			return d, nil
		}
		ts := &timedStore{inner: d, tr: tr}
		t.stores = append(t.stores, ts)
		return ts, nil
	}
	fail := func(err error) (*topology, error) {
		t.stop()
		return nil, err
	}
	daemonCfg := func(st store.Store) server.Config {
		return server.Config{Store: st, Workers: workers(), QueueDepth: daemonQueue, MaxJobHistory: 1 << 16}
	}
	if daemons == nil {
		st, err := open("daemon")
		if err != nil {
			return fail(err)
		}
		svc, err := server.New(daemonCfg(st))
		if err != nil {
			return fail(err)
		}
		addr, stop, err := serveHTTP(svc.Handler(), svc.Shutdown)
		if err != nil {
			svc.Shutdown(context.Background())
			return fail(err)
		}
		t.stops = append(t.stops, stop)
		t.front = newClient(addr, tr)
		return t, t.ready()
	}

	names := make(map[string]string) // daemon-N:80 → loopback address
	var urls []string
	for i, mem := range daemons {
		t.nodes = append(t.nodes, mem)
		svc, err := server.New(daemonCfg(mem))
		if err != nil {
			return fail(err)
		}
		addr, stop, err := serveHTTP(svc.Handler(), svc.Shutdown)
		if err != nil {
			svc.Shutdown(context.Background())
			return fail(err)
		}
		t.stops = append(t.stops, stop)
		names[fmt.Sprintf("daemon-%d:80", i)] = addr
		urls = append(urls, fmt.Sprintf("http://daemon-%d", i))
		t.daemons = append(t.daemons, server.NewClient("http://"+addr, &http.Client{Transport: clientTransport()}))
	}
	st, err := open("coordinator")
	if err != nil {
		return fail(err)
	}
	hop := http.DefaultTransport.(*http.Transport).Clone()
	var dialer net.Dialer
	hop.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := names[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	var rt http.RoundTripper = hop
	if tr != nil {
		t.hop = &timedTransport{base: hop, tr: tr, prefix: "fed.hop."}
		rt = t.hop
	}
	coord, err := fed.New(fed.Config{
		Downstreams: urls, Store: st, MaxJobHistory: 1 << 16,
		HTTPClient: &http.Client{Transport: rt},
	})
	if err != nil {
		return fail(err)
	}
	addr, stop, err := serveHTTP(coord.Handler(), coord.Shutdown)
	if err != nil {
		coord.Shutdown(context.Background())
		return fail(err)
	}
	t.stops = append(t.stops, stop)
	t.front = newClient(addr, tr)
	return t, t.ready()
}

// ready returns once the front door answers a read.
func (t *topology) ready() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := t.front.Jobs(ctx)
	return err
}

func newClient(addr string, tr *tracer) *server.Client {
	var rt http.RoundTripper = clientTransport()
	if tr != nil {
		rt = &timedTransport{base: rt, tr: tr, prefix: "server."}
	}
	return server.NewClient("http://"+addr, &http.Client{Transport: rt})
}

// jobSeen is what the firehose showed of one job.
type jobSeen struct {
	first, terminal time.Time
	state           server.JobState
	next            int // next expected Seq
	seqGaps         int
	boardStart      map[int]time.Time
	lastLevel       map[int]time.Time
	boardMs         []float64
	levelMs         []float64
	doneCached      int
	doneMeasured    int
}

// firehoseWatch is the one firehose subscription: it timestamps every
// event and checks per-job Seq and global GSeq density.
type firehoseWatch struct {
	mu     sync.Mutex
	jobs   map[string]*jobSeen
	lastG  int64
	gGaps  int64
	events int64
}

func (w *firehoseWatch) observe(ev server.JobEvent) error {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.events++
	if ev.GSeq != w.lastG+1 {
		w.gGaps++
	}
	w.lastG = ev.GSeq
	j := w.jobs[ev.Job]
	if j == nil {
		j = &jobSeen{first: now, boardStart: map[int]time.Time{}, lastLevel: map[int]time.Time{}}
		w.jobs[ev.Job] = j
	}
	if ev.Seq != j.next {
		j.seqGaps++
	}
	j.next = ev.Seq + 1
	switch ev.Type {
	case "start":
		j.boardStart[ev.Board] = now
		j.lastLevel[ev.Board] = now
	case "level":
		j.levelMs = append(j.levelMs, ms(now.Sub(j.lastLevel[ev.Board])))
		j.lastLevel[ev.Board] = now
	case "done":
		if s, ok := j.boardStart[ev.Board]; ok {
			j.boardMs = append(j.boardMs, ms(now.Sub(s)))
		}
		if ev.FromCache {
			j.doneCached++
		} else {
			j.doneMeasured++
		}
	case "campaign":
		j.terminal = now
		j.state = ev.State
	}
	return nil
}

// seen returns the job's record, or nil.
func (w *firehoseWatch) seen(id string) *jobSeen {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

// pending counts the given jobs the firehose has not yet shown terminal.
func (w *firehoseWatch) pending(ids []string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, id := range ids {
		if j := w.jobs[id]; j == nil || j.terminal.IsZero() {
			n++
		}
	}
	return n
}

// opResult is the outcome of one sent operation.
type opResult struct {
	done     time.Time // response received
	id       string    // submit: the accepted job
	accepted bool
	refused  bool // 503: admission control
	err      error
}

func runServe(ctx context.Context, p params, federated bool) (*outcome, error) {
	oc := &outcome{metrics: metricSet{}, ops: newOpTally()}
	name := "serve-open"
	if federated {
		name = "fed-serve"
	}
	dir, err := os.MkdirTemp(p.workDir, name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}

	runStart := time.Now()
	// Preload the journal with an unmeasured stack, then boot over it.
	var daemons []*store.Mem
	if federated {
		daemons = []*store.Mem{store.NewMem(), store.NewMem()}
	}
	pre, err := boot(dir, daemons, nil)
	if err != nil {
		return nil, fmt.Errorf("preload boot: %w", err)
	}
	preloadIDs, err := runJobs(ctx, pre.front, preloadOps(p.seed))
	pre.stop()
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	var setup []float64
	var top *topology
	var bootStart, bootEnd time.Time
	for b := 0; b < boots; b++ {
		bootStart = time.Now()
		top, err = boot(dir, daemons, tr)
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		bootEnd = time.Now()
		setup = append(setup, bootEnd.Sub(bootStart).Seconds())
		if b < boots-1 {
			top.stop()
		}
	}
	defer top.stop()
	if tr != nil {
		tr.on.Store(false) // the warm-up is not part of any layer's figures
	}
	warmStart := time.Now()
	if err := warmUp(ctx, top, p.seed); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	fmt.Fprintf(p.log, "%s: preload and boots took %v, warm-up %v\n", name, warmStart.Sub(runStart), time.Since(warmStart))
	journalBase := uint64(0)
	for _, d := range top.disks {
		journalBase += d.JournalBytes()
	}
	eventsBase := int64(0)
	for _, s := range top.stores {
		eventsBase += s.events.Load()
	}

	// The firehose subscribes before the first submit, from the head of the
	// replayed journal, so it sees every event of the run and nothing older.
	head, err := top.nodes[len(top.nodes)-1].LastGSeq()
	if err != nil {
		return nil, err
	}
	watch := &firehoseWatch{jobs: map[string]*jobSeen{}, lastG: head}
	fhCtx, fhCancel := context.WithCancel(ctx)
	fhDone := make(chan error, 1)
	go func() { fhDone <- top.front.Firehose(fhCtx, head, watch.observe) }()
	stopFirehose := sync.OnceValue(func() error {
		fhCancel()
		return <-fhDone
	})
	defer stopFirehose()

	ops := planOps(p.seed, p.offeredRate, p.seconds)
	due := make([]time.Duration, len(ops))
	for i, o := range ops {
		due[i] = o.due
	}
	results := make([]opResult, len(ops))
	var lastMu sync.Mutex
	lastID := preloadIDs[len(preloadIDs)-1]
	var accepted []string
	start := time.Now().Add(10 * time.Millisecond)
	do := func(i int) {
		o := ops[i]
		if tr != nil {
			tr.on.Store(int(o.due/traceWindow)%2 == 1)
		}
		r := &results[i]
		switch o.op {
		case "submit":
			st, err := top.front.Submit(ctx, o.req)
			r.done = time.Now()
			var se *server.APIStatusError
			switch {
			case err == nil:
				r.id, r.accepted = st.ID, true
				lastMu.Lock()
				lastID = st.ID
				accepted = append(accepted, st.ID)
				lastMu.Unlock()
			case errors.As(err, &se) && se.StatusCode == http.StatusServiceUnavailable:
				r.refused, r.err = true, err
			default:
				r.err = err
			}
		case "status":
			lastMu.Lock()
			id := lastID
			lastMu.Unlock()
			_, r.err = top.front.Job(ctx, id)
			r.done = time.Now()
		case "vmin":
			_, r.err = top.front.Vmin(ctx, o.platform, "")
			r.done = time.Now()
		case "fvms":
			_, r.err = top.front.FVMs(ctx, o.platform, o.serial)
			r.done = time.Now()
		}
	}
	// Writes and reads go out from separate senders, as from separate
	// clients: a read falling due while a submit waits on the journal is not
	// queued behind it.
	var writes, reads []int
	for i, o := range ops {
		if o.op == "submit" {
			writes = append(writes, i)
		} else {
			reads = append(reads, i)
		}
	}
	sent := make([]time.Time, len(ops))
	var wg sync.WaitGroup
	for _, idx := range [][]int{writes, reads} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := make([]time.Duration, len(idx))
			for k, i := range idx {
				d[k] = due[i]
			}
			s := openLoop(ctx, realClock{}, start, d, max(workers()/2, 1), func(k int) { do(idx[k]) })
			for k, i := range idx {
				sent[i] = s[k]
			}
		}()
	}
	wg.Wait()
	lastMu.Lock()
	acceptedIDs := append([]string(nil), accepted...)
	lastMu.Unlock()
	backlog := watch.pending(acceptedIDs)
	for waitEnd := time.Now().Add(drainTimeout); watch.pending(acceptedIDs) > 0 && time.Now().Before(waitEnd); {
		time.Sleep(5 * time.Millisecond)
	}
	if tr != nil {
		tr.on.Store(true)
	}

	// Accounting and checks.
	limit := time.Duration(p.latencyLimitMs * float64(time.Millisecond))
	var jobLat, firstLat, queryLat, jobLatTraced, jobLatPlain []float64
	kindBoards := make([]int, len(kindNames))
	jobsSent, jobsOK, refused := 0, 0, 0
	var lastTerminal time.Time
	for i, o := range ops {
		r := results[i]
		if sent[i].IsZero() {
			oc.failf("%s op %d never sent", o.op, i)
			continue
		}
		dueAt := start.Add(o.due)
		if o.op != "submit" {
			oc.ops.note("query", r.err != nil)
			if r.err != nil {
				oc.failf("%s query %d: %v", o.op, i, r.err)
				continue
			}
			queryLat = append(queryLat, ms(r.done.Sub(dueAt)))
			continue
		}
		jobsSent++
		if r.refused {
			refused++
		}
		if !r.accepted {
			oc.ops.note("submit", true)
			if !r.refused {
				oc.failf("submit %d: %v", i, r.err)
			}
			continue
		}
		j := watch.seen(r.id)
		ok := j != nil && j.state == server.JobDone && j.seqGaps == 0
		oc.ops.note("submit", !ok)
		switch {
		case j == nil || j.terminal.IsZero():
			oc.failf("job %s never showed terminal on the firehose", r.id)
			continue
		case j.state != server.JobDone:
			oc.failf("job %s ended %s", r.id, j.state)
		case j.seqGaps > 0:
			oc.failf("job %s: %d Seq gaps on the firehose", r.id, j.seqGaps)
		}
		lat := j.terminal.Sub(dueAt)
		jobLat = append(jobLat, ms(lat))
		if int(o.due/traceWindow)%2 == 1 {
			jobLatTraced = append(jobLatTraced, ms(lat))
		} else {
			jobLatPlain = append(jobLatPlain, ms(lat))
		}
		firstLat = append(firstLat, ms(j.first.Sub(dueAt)))
		if ok && lat <= limit {
			jobsOK++
			kindBoards[o.kind] += len(o.req.Boards)
		}
		if j.terminal.After(lastTerminal) {
			lastTerminal = j.terminal
		}
	}
	watch.mu.Lock()
	if watch.gGaps > 0 {
		oc.failf("%d GSeq gaps on the firehose", watch.gGaps)
	}
	watch.mu.Unlock()
	fhErr := stopFirehose()
	streamFailed := fhErr != nil && !errors.Is(fhErr, context.Canceled)
	oc.ops.note("stream", streamFailed)
	if streamFailed {
		oc.failf("firehose: %v", fhErr)
	}
	if federated && len(oc.errs) == 0 {
		if err := checkFederated(ctx, top.front, ops, results, oc); err != nil {
			return nil, err
		}
	}

	m := oc.metrics
	window := lastTerminal.Sub(start)
	if !p.trace {
		total := 0
		for k, n := range kindBoards {
			total += n
			m["boards_per_s."+kindNames[k]] = perSecond(n, window)
		}
		m["boards_per_s"] = perSecond(total, window)
		m["setup_s"] = median(setup)
		m["job_p50_ms"] = quantile(jobLat, 0.50)
		m["job_p95_ms"] = quantile(jobLat, 0.95)
		m["first_event_p50_ms"] = quantile(firstLat, 0.50)
		m["query_p50_ms"] = quantile(queryLat, 0.50)
		m["ok_share"] = share(jobsOK, jobsSent)
		rss, err := rssPeakMB()
		if err != nil {
			return nil, err
		}
		m["rss_peak_mb"] = rss
		fmt.Fprintf(p.log, "%s: %d ops; %d jobs (%d refused), highest supported percentile p%g; %d reads\n",
			name, len(ops), jobsSent, refused, 100*highestPercentile(len(jobLat)), len(queryLat))
		return oc, nil
	}

	late := lateness(start, due, sent)
	lateMs := make([]float64, len(late))
	for i, d := range late {
		lateMs[i] = ms(d)
	}
	m["loadgen.late_p95_ms"] = quantile(lateMs, 0.95)
	m["loadgen.backlog_end"] = float64(backlog)
	m["loadgen.job_samples"] = float64(len(jobLat))
	m["loadgen.query_p95_ms"] = quantile(queryLat, 0.95)
	attempted, failed, _ := oc.ops.totals()
	m["loadgen.failed_share"] = share(int(failed), int(attempted))
	m["server.refused"] = float64(refused)
	if len(jobLatPlain) > 0 && len(jobLatTraced) > 0 {
		m["trace.overhead_ratio"] = median(jobLatTraced) / median(jobLatPlain)
	}
	if err := serveLayers(ctx, tr, top, ops, results, watch, bootStart, bootEnd, journalBase, eventsBase, window, m); err != nil {
		return nil, err
	}
	return oc, nil
}

// warmUp runs mitigation jobs, the kind with the most events, until every
// node has streamed warmEvents events since its boot. A daemon's and a
// coordinator's in-memory firehose windows (8192 events by default) are then
// full, as they are in any daemon that has run for a while, so the measured
// window sees that steady state, where every append also evicts, instead of
// the first minutes after a boot. Behind a coordinator, jobs through the
// front fill the coordinator first; each daemon is then topped up directly.
func warmUp(ctx context.Context, top *topology, seed uint64) error {
	base := make([]int64, len(top.nodes))
	for i, st := range top.nodes {
		g, err := st.LastGSeq()
		if err != nil {
			return err
		}
		base[i] = g
	}
	front := len(top.nodes) - 1
	if err := fillWindow(ctx, top.front, top.nodes[front], base[front], seed, 0); err != nil {
		return err
	}
	for i, c := range top.daemons {
		if err := fillWindow(ctx, c, top.nodes[i], base[i], seed, uint64(i+1)); err != nil {
			return err
		}
	}
	return nil
}

// fillWindow submits batches of mitigation jobs through c until st has
// journaled warmEvents events past base.
func fillWindow(ctx context.Context, c *server.Client, st store.Store, base int64, seed, stream uint64) error {
	for round := 0; round < maxWarmRounds; round++ {
		g, err := st.LastGSeq()
		if err != nil {
			return err
		}
		if g-base >= warmEvents {
			return nil
		}
		reqs := make([]server.CampaignRequest, warmBatch)
		for i := range reqs {
			rng := rand.New(rand.NewPCG(seed, 1<<60+stream<<32+uint64(round*warmBatch+i)))
			reqs[i] = server.NewMitigationRequest(jobBoards(rng, seed, jobBoardCount, false), server.MitigationSpec{})
		}
		if _, err := runJobs(ctx, c, reqs); err != nil {
			return err
		}
	}
	return fmt.Errorf("still below %d events after %d rounds", warmEvents, maxWarmRounds)
}

// runJobs runs reqs through the stack, one per worker at a time, waiting
// for each to finish, and returns the job ids. It fills the journal and the
// firehose windows before measurement; it is not part of the load.
func runJobs(ctx context.Context, c *server.Client, reqs []server.CampaignRequest) ([]string, error) {
	ids := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(reqs) {
					return
				}
				st, err := c.Submit(ctx, reqs[k])
				if err == nil {
					st, err = c.Wait(ctx, st.ID, nil)
				}
				if err == nil && st.State != server.JobDone {
					err = fmt.Errorf("preload job %s ended %s: %s", st.ID, st.State, st.Error)
				}
				ids[k], errs[k] = st.ID, err
			}
		}()
	}
	wg.Wait()
	return ids, errors.Join(errs...)
}

// requestCampaign rebuilds, for the kinds this benchmark submits, the
// engine campaign and inventory a daemon compiles from req.
func requestCampaign(req server.CampaignRequest) (engine.Campaign, []platform.Platform, error) {
	kind, err := engine.KindByName(req.Kind)
	if err != nil {
		return engine.Campaign{}, nil, err
	}
	flat, err := server.ExpandBoards(req.Boards, 1<<10)
	if err != nil {
		return engine.Campaign{}, nil, err
	}
	inv := make([]platform.Platform, len(flat))
	for i, b := range flat {
		p, err := platform.ByName(b.Platform)
		if err != nil {
			return engine.Campaign{}, nil, err
		}
		if b.BRAMs > 0 {
			p = p.Scaled(b.BRAMs)
		}
		inv[i] = p.WithSerial(b.Serial)
	}
	c := engine.Campaign{Kind: kind, Sweep: characterize.Options{Runs: req.Runs, OnBoardC: req.TempC}}
	if m := req.Mitigation; m != nil {
		c.MitArms, c.MitVoltages, c.MitIsoEnergy = m.Arms, m.Voltages, m.IsoEnergy
	}
	return c, inv, nil
}

// checkFederated compares the first coordinator job of every kind with an
// in-process engine run of the same request. Cache hits are a property of
// the cache's history, not of the measurement, and are left out.
func checkFederated(ctx context.Context, front *server.Client, ops []plannedOp, results []opResult, oc *outcome) error {
	checked := make(map[int]bool)
	for i, o := range ops {
		if o.op != "submit" || checked[o.kind] || !results[i].accepted {
			continue
		}
		checked[o.kind] = true
		st, err := front.Job(ctx, results[i].id)
		if err != nil {
			return fmt.Errorf("fetch %s: %w", results[i].id, err)
		}
		c, inv, err := requestCampaign(o.req)
		if err != nil {
			return err
		}
		ref, err := engine.NewFleet(inv, engine.Options{}).RunCampaign(ctx, c)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", results[i].id, err)
		}
		// The wire form is JSON; put the reference through the same trip.
		b, err := json.Marshal(ref.Agg)
		if err != nil {
			return err
		}
		var want engine.Aggregate
		if err := json.Unmarshal(b, &want); err != nil {
			return err
		}
		got := st.Aggregate
		if got == nil {
			oc.failf("coordinator job %s has no aggregate", st.ID)
			continue
		}
		g := *got
		g.CacheHits, want.CacheHits = 0, 0
		if !reflect.DeepEqual(g, want) {
			oc.failf("coordinator job %s (%s) aggregate differs from the in-process engine run", st.ID, o.req.Kind)
		}
	}
	return nil
}

// serveLayers fills the per-layer metrics of a traced serving run: store
// and HTTP spans, the daemons' own job timestamps, what the firehose showed
// of the engine, the coordinator's shard records, and a layer-by-layer
// replay of two of the served boards.
func serveLayers(ctx context.Context, tr *tracer, top *topology, ops []plannedOp, results []opResult,
	watch *firehoseWatch, bootStart, bootEnd time.Time, journalBase uint64, eventsBase int64,
	window time.Duration, m metricSet) error {
	// Snapshot first: the status fetches below must not count as load.
	spans := tr.snapshot()
	named := byName(spans)
	m["store.append_us"] = median(named["store.append"]) * 1e3
	m["store.putjob_us"] = median(named["store.putjob"]) * 1e3
	m["store.put_ms"] = median(named["store.put"])
	m["store.get_us"] = median(named["store.get"]) * 1e3
	m["store.list_us"] = median(named["store.list"]) * 1e3
	var replay time.Duration
	for _, s := range spans {
		if len(s.name) > 6 && s.name[:6] == "store." && !s.start.Before(bootStart) && !s.end.After(bootEnd) {
			replay += s.dur()
		}
	}
	m["store.replay_ms"] = ms(replay)
	var journal uint64
	for _, d := range top.disks {
		journal += d.JournalBytes()
	}
	events, errs := -eventsBase, int64(0)
	for _, s := range top.stores {
		events += s.events.Load()
		errs += s.errs.Load()
	}
	if events > 0 {
		m["store.journal_bytes_per_event"] = float64(journal-journalBase) / float64(events)
	}
	m["store.errors"] = float64(errs)
	m["server.submit_ms"] = median(named["server.submit"])
	for _, q := range queryKinds {
		m["server.query_ms."+q] = median(named["server."+q])
	}
	if top.hop != nil {
		for _, c := range hopCalls {
			d := named["fed.hop."+c]
			if c == "query" {
				d = append(append([]float64(nil), named["fed.hop.vmin"]...), named["fed.hop.fvms"]...)
			}
			m["fed.hop_ms."+c] = median(d)
		}
		m["fed.hop_calls"] = float64(top.hop.calls.Load())
		m["fed.hop_failed"] = float64(top.hop.failed.Load())
	}

	// Engine, as the firehose showed it.
	boardMs := make([][]float64, len(kindNames))
	var levelMs []float64
	cached, measured, charCached, charAll, jobs := 0, 0, 0, 0, 0
	for i, o := range ops {
		if o.op != "submit" || !results[i].accepted {
			continue
		}
		j := watch.seen(results[i].id)
		if j == nil {
			continue
		}
		jobs++
		boardMs[o.kind] = append(boardMs[o.kind], j.boardMs...)
		if engineKinds[o.kind] == engine.KindMitigation {
			levelMs = append(levelMs, j.levelMs...)
		}
		cached += j.doneCached
		measured += j.doneMeasured
		if o.kind == 0 {
			charCached += j.doneCached
			charAll += j.doneCached + j.doneMeasured
		}
	}
	for k, name := range kindNames {
		m["engine.board_ms."+name] = median(boardMs[k])
	}
	m["engine.level_ms.mitigation"] = median(levelMs)
	m["engine.cache_hit_ratio"] = share(charCached, charAll)
	m["engine.characterizations"] = float64(measured) / float64(max(jobs, 1))

	// Job timestamps: the front door's own, and behind a coordinator each
	// daemon's, read through its public API.
	daemonByURL := make(map[string]*server.Client)
	for i, c := range top.daemons {
		daemonByURL[fmt.Sprintf("http://daemon-%d", i)] = c
	}
	var queue, compute, deliver, busy []float64
	var fedSpans []span
	shardBoards := make(map[string]int)
	stolen := 0
	for i, o := range ops {
		if o.op != "submit" || !results[i].accepted {
			continue
		}
		st, err := top.front.Job(ctx, results[i].id)
		if err != nil {
			return fmt.Errorf("job %s: %w", results[i].id, err)
		}
		if st.Started == nil || st.Finished == nil {
			continue
		}
		queue = append(queue, ms(st.Started.Sub(st.Created)))
		compute = append(compute, ms(st.Finished.Sub(*st.Started)))
		if j := watch.seen(st.ID); j != nil && !j.terminal.IsZero() {
			deliver = append(deliver, ms(j.terminal.Sub(*st.Finished)))
		}
		if len(daemonByURL) == 0 {
			busy = append(busy, ms(st.Finished.Sub(*st.Started)))
			continue
		}
		parent := len(fedSpans)
		fedSpans = append(fedSpans, span{name: "fed.job", job: st.ID, parent: -1, start: st.Created, end: *st.Finished})
		for _, sh := range st.Shards {
			shardBoards[sh.Daemon] += sh.Boards
			stolen += sh.Stolen
			dc := daemonByURL[sh.Daemon]
			if dc == nil {
				continue
			}
			for _, id := range sh.Jobs {
				ds, err := dc.Job(ctx, id)
				if err != nil {
					return fmt.Errorf("daemon job %s: %w", id, err)
				}
				if ds.Started == nil || ds.Finished == nil {
					continue
				}
				busy = append(busy, ms(ds.Finished.Sub(*ds.Started)))
				fedSpans = append(fedSpans, span{name: "daemon.job", job: st.ID, parent: parent, start: ds.Created, end: *ds.Finished})
			}
		}
	}
	m["server.queue_wait_ms"] = median(queue)
	m["server.compute_ms"] = median(compute)
	m["server.deliver_ms"] = median(deliver)
	nodes := max(len(top.daemons), 1)
	if window > 0 {
		m["engine.worker_busy_share"] = sum(busy) / (ms(window) * float64(nodes*workers()))
	}
	if len(fedSpans) > 0 {
		self := selfTimes(fedSpans)
		var overhead []float64
		for i, s := range fedSpans {
			if s.parent < 0 {
				overhead = append(overhead, ms(self[i]))
			}
		}
		m["fed.overhead_ms"] = median(overhead)
		lo, hi := math.MaxInt, 0
		for url := range daemonByURL {
			lo, hi = min(lo, shardBoards[url]), max(hi, shardBoards[url])
		}
		m["fed.shard_balance"] = share(lo, hi)
		m["fed.stolen"] = float64(stolen)
	}

	// Inner layers: two boards of the first characterization job, replayed
	// one layer at a time.
	for _, o := range ops {
		if o.op == "submit" && o.kind == 0 {
			_, inv, err := requestCampaign(o.req)
			if err != nil {
				return err
			}
			return replayLayers(ctx, tr, inv[:min(replayBoards, len(inv))], serveRuns, m)
		}
	}
	return nil
}
