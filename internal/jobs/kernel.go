package jobs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// Options configures a Kernel. Zero values take the defaults noted.
type Options struct {
	// Base parents every job context; cancelling it cancels every live job
	// and ends every SSE stream. nil means context.Background().
	Base context.Context
	// IDPrefix names jobs "<IDPrefix>-0001", "<IDPrefix>-0002", ...
	IDPrefix string
	// Journal backs the job journal; nil keeps jobs in memory only.
	Journal store.Store
	// Retain, when > 0, trims a terminal job's journaled event log to (at
	// least) its last Retain events.
	Retain int
	// MaxHistory caps the job table; beyond it the oldest terminal jobs are
	// evicted and unjournaled (default 256). Live jobs are never evicted.
	MaxHistory int
	// FirehoseBuffer bounds the GET /v1/events in-memory replay window
	// (default 8192 events).
	FirehoseBuffer int
	// EventWindow bounds how many of a job's most recent events stay in
	// memory once durably journaled (default 2048; negative disables
	// trimming). Ignored without a journal.
	EventWindow int
	// KeepAlive is the idle interval between SSE comment frames (default
	// 15s).
	KeepAlive time.Duration
	// OnTerminal, when set, runs after every job's terminal settlement.
	OnTerminal func()
}

// Kernel is the job/event machinery one process serves its jobs from: the
// job table, the firehose, and the journal.
type Kernel struct {
	base       context.Context
	prefix     string
	fh         *firehose
	jn         *journal // nil when journaling is off
	tbl        *table
	window     int
	keepAlive  time.Duration
	onTerminal func()
}

// New assembles a kernel. It replays nothing: call Replay before serving.
func New(o Options) *Kernel {
	if o.Base == nil {
		o.Base = context.Background()
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 256
	}
	if o.EventWindow == 0 {
		o.EventWindow = 2048
	}
	if o.KeepAlive <= 0 {
		o.KeepAlive = 15 * time.Second
	}
	k := &Kernel{
		base: o.Base, prefix: o.IDPrefix, fh: newFirehose(o.FirehoseBuffer),
		window: o.EventWindow, keepAlive: o.KeepAlive, onTerminal: o.OnTerminal,
	}
	if o.Journal != nil {
		k.jn = &journal{st: o.Journal, retain: o.Retain}
	}
	k.tbl = &table{max: o.MaxHistory, jobs: make(map[string]*Job), onEvict: k.jn.drop}
	return k
}

func (k *Kernel) newJob(kind string, boards int, body Body) *Job {
	ctx, cancel := context.WithCancel(k.base)
	return &Job{
		k: k, kind: kind, boards: boards, body: body, ctx: ctx, cancel: cancel,
		state: Queued, created: time.Now(), notify: make(chan struct{}),
	}
}

// Create registers a new queued job of the given kind and fleet size. body
// (nil for none) adds the owner's fields to the job's status. Creation may
// evict old terminal history. The job is not journaled until Persist.
func (k *Kernel) Create(kind string, boards int, body Body) *Job {
	j := k.newJob(kind, boards, body)
	k.tbl.add(j, k.prefix)
	return j
}

// Discard deregisters a job that was never admitted and cancels it, so a
// rejected submission leaves no phantom entry in the listing.
func (k *Kernel) Discard(j *Job) {
	k.tbl.remove(j.id)
	j.cancel()
}

// Journaled reports whether the kernel journals its jobs.
func (k *Kernel) Journaled() bool { return k.jn != nil }

// JournalErrors reports how many journal writes have been dropped.
func (k *Kernel) JournalErrors() uint64 {
	if k.jn == nil {
		return 0
	}
	return k.jn.errs.Load()
}

// table is the job registry. Retention is bounded: beyond max entries, the
// oldest terminal jobs are evicted (only the job row and its event log go).
// Live jobs are never evicted, so the table can exceed max only while that
// many jobs are actually queued or running.
type table struct {
	mu    sync.Mutex
	seq   int
	max   int
	jobs  map[string]*Job
	order []string // creation order, for oldest-first eviction
	// onEvict is told which jobs were dropped (outside the table lock), so
	// the journal stays in step with the table's retention.
	onEvict func(jobs []*Job)
}

// add assigns j the next id and sequence and registers it.
func (t *table) add(j *Job, prefix string) {
	t.mu.Lock()
	t.seq++
	j.seq = t.seq
	j.id = fmt.Sprintf("%s-%04d", prefix, t.seq)
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	evicted := t.evictLocked()
	t.mu.Unlock()
	if len(evicted) > 0 {
		t.onEvict(evicted)
	}
}

// adopt registers a job replayed from the journal under its original id and
// sequence, so post-restart submissions continue the numbering.
func (t *table) adopt(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq = max(t.seq, j.seq)
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
}

// bumpSeq raises the id sequence to at least seq — covering journaled jobs
// that were themselves dropped during replay but whose ids must not be
// reissued.
func (t *table) bumpSeq(seq int) {
	t.mu.Lock()
	t.seq = max(t.seq, seq)
	t.mu.Unlock()
}

// sweep evicts excess terminal jobs. Every terminal transition calls it, so
// a table that filled up with live jobs shrinks as soon as they finish
// rather than on the next submission.
func (t *table) sweep() {
	t.mu.Lock()
	evicted := t.evictLocked()
	t.mu.Unlock()
	if len(evicted) > 0 {
		t.onEvict(evicted)
	}
}

// evictLocked drops the oldest terminal jobs until the table fits max,
// compacting the order slice in a single pass.
func (t *table) evictLocked() []*Job {
	excess := len(t.jobs) - t.max
	if excess <= 0 {
		return nil
	}
	var evicted []*Job
	kept := t.order[:0]
	for _, id := range t.order {
		j, ok := t.jobs[id]
		if !ok {
			continue
		}
		if excess > 0 && j.terminal() {
			delete(t.jobs, id)
			evicted = append(evicted, j)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
	return evicted
}

// remove deregisters a job by id.
func (t *table) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, id)
	for i, o := range t.order {
		if o == id {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

func (t *table) get(id string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// list snapshots every job's status, oldest first. Ordering follows the
// creation sequence, not the id string — "job-10000" must list after
// "job-9999", which lexicographic id order would get wrong.
func (t *table) list() []Status {
	t.mu.Lock()
	jobs := make([]*Job, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status(false))
	}
	return out
}
