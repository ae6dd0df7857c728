package jobs

import (
	"context"
	"sync"
	"time"
)

// Body adds a binary's own fields to a job's wire status — the daemon's
// engine results, the coordinator's shard map and merged rows. It runs with
// the job's lock held, so it must not call back into the job; an owner that
// guards its fields with its own mutex nests that mutex inside this lock.
type Body func(st *Status, includeResults bool)

// Job is one queued, running, finished or replayed job: its lifecycle, its
// event log and its journal write-through. All mutable state is guarded by
// mu; notify is closed and replaced on every change, which is what lets any
// number of SSE streams wait for "something new" without polling. Every
// event additionally flows through the kernel's firehose (which stamps it
// with a global sequence) and, when journaling is on, into the store's
// per-job event log.
type Job struct {
	id     string
	seq    int // table-assigned creation order; ids are for the wire
	kind   string
	boards int
	k      *Kernel
	body   Body
	// ctx/cancel exist from creation: a DELETE can always cancel, whether
	// the job is still queued, mid-handoff, or running.
	ctx    context.Context
	cancel context.CancelFunc

	// jnMu serializes this job's journal writes with their snapshots (and
	// with eviction's record delete); it nests OUTSIDE mu and must never
	// be taken while holding it. jnDropped is guarded by jnMu.
	jnMu      sync.Mutex
	jnDropped bool

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	progress float64
	errMsg   string
	// events is the in-memory tail of the job's event log, holding
	// sequences [eventsBase, eventsBase+len(events)). With journaling on,
	// the tail is trimmed to the kernel's event window once events are
	// durably appended — older sequences are paged back from the journal on
	// demand — so a long campaign's history does not live in RAM twice.
	// Without a journal the tail is never trimmed and base stays 0.
	events     []Event
	eventsBase int
	// jnPending queues events appended under mu but not yet written to the
	// journal; sync drains it in order. Always empty without a journal.
	jnPending []Event
	// jnDegraded marks that a journal write for this job has failed and the
	// one-time journal_degraded marker event has been emitted. The job keeps
	// running — durability degrades, service does not.
	jnDegraded bool
	notify     chan struct{}
	// restored holds the journaled status snapshot of a job replayed from
	// a previous process. Such jobs never run again; their status is
	// served from this snapshot.
	restored *Status
}

// Context is cancelled when the job is cancelled or the kernel's base
// context ends; restored jobs are born cancelled.
func (j *Job) Context() context.Context { return j.ctx }

// Cancel cancels the job's context.
func (j *Job) Cancel() { j.cancel() }

// signalLocked wakes every waiter; callers hold j.mu.
func (j *Job) signalLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendLocked sequences ev under the job's numbering, stamps its global
// sequence, queues it for the journal and wakes the streams; callers hold
// j.mu and must call j.sync after releasing it. Progress is monotonicized:
// concurrent producers race to emit, and dashboards must never see the bar
// move backwards.
func (j *Job) appendLocked(ev Event) {
	ev.Job = j.id
	if ev.Progress < j.progress {
		ev.Progress = j.progress
	}
	j.progress = ev.Progress
	ev.Seq = j.eventsBase + len(j.events)
	j.k.fh.append(&ev) // stamps ev.GSeq; fh.mu nests inside j.mu everywhere
	j.events = append(j.events, ev)
	if j.k.jn != nil {
		j.jnPending = append(j.jnPending, ev)
	}
	j.signalLocked()
}

// Append records one event: sequenced, stamped, journaled and streamed.
// Seq, GSeq and Job are assigned here; Progress never moves backwards.
func (j *Job) Append(ev Event) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
	j.sync()
}

// noteJournalDegraded appends the one-time journal_degraded marker event
// after a failed journal write: the job keeps running, and live streams
// learn its durable history has a gap instead of discovering it after a
// restart. Callers hold jnMu (both journal error paths do), so the marker
// is only queued for the journal — the next successful drain persists it; a
// recursive sync here would deadlock on jnMu. The marker draws a real Seq,
// so live SSE stays dense. Terminal and replayed jobs are skipped: their
// streams have already been told the job's story ended.
func (j *Job) noteJournalDegraded() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.jnDegraded || j.restored != nil || j.state.Terminal() {
		return
	}
	j.jnDegraded = true
	j.appendLocked(Event{
		Type:  "journal_degraded",
		Error: "journal write failed: event history may not survive a restart",
	})
}

// trimJournaled drops in-memory events below upto (the journal's durable
// frontier) beyond the kernel's event window, so RAM holds a bounded recent
// tail and the journal serves the rest. Never trims past what is durable:
// an SSE replay must not depend on a write that failed. Like the firehose
// window, the tail is resliced, not copied: append's next growth frees the
// dropped prefix.
func (j *Job) trimJournaled(upto int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.k.window <= 0 {
		return
	}
	cut := min(j.eventsBase+len(j.events)-j.k.window, upto)
	if cut <= j.eventsBase {
		return
	}
	j.events = j.events[cut-j.eventsBase:]
	j.eventsBase = cut
}

// Start transitions queued → running and journals the transition. It
// reports false when the job was cancelled while queued, in which case the
// caller must not run it.
func (j *Job) Start() bool {
	j.mu.Lock()
	if j.state != Queued {
		j.mu.Unlock()
		return false
	}
	j.state = Running
	j.started = time.Now()
	j.signalLocked()
	j.mu.Unlock()
	j.Persist()
	return true
}

// Finish moves a job that is not yet terminal to state st: errMsg becomes
// the status error and the error of the terminal "campaign" event, settle
// (when non-nil) runs under the job lock just before that event is
// published — the place to land results the status body reads — and the
// terminal settlement follows. It reports false when the job was already
// terminal.
func (j *Job) Finish(st State, errMsg string, settle func()) bool {
	return j.terminate(func(s State) bool { return !s.Terminal() }, st, errMsg, errMsg, settle)
}

// CancelQueued flips a still-queued job straight to cancelled; running jobs
// end through Finish once their producer unwinds. The status keeps no error
// (nothing failed), while the terminal event says why the job ended.
func (j *Job) CancelQueued() bool {
	return j.terminate(func(s State) bool { return s == Queued }, Cancelled, "", context.Canceled.Error(), nil)
}

// failRestored finishes a replayed job that was queued or running when the
// previous process died: state failed, a terminal event (with a fresh global
// sequence) appended and journaled, and the metadata record updated.
func (j *Job) failRestored(msg string) {
	j.terminate(func(s State) bool { return !s.Terminal() }, Failed, msg, msg, func() {
		now := j.finished
		j.restored.State, j.restored.Error, j.restored.Finished = Failed, msg, &now
	})
}

// terminate is the one terminal transition: state, timestamps and the
// terminal "campaign" event under the lock, then — after the event is
// visible — the durable settlement (event drain, metadata, retention) and
// the kernel's terminal hooks.
func (j *Job) terminate(from func(State) bool, st State, errMsg, eventErr string, settle func()) bool {
	j.mu.Lock()
	if !from(j.state) {
		j.mu.Unlock()
		return false
	}
	j.state = st
	j.finished = time.Now()
	j.errMsg = errMsg
	if st == Done {
		j.progress = 100
	}
	if settle != nil {
		settle()
	}
	j.appendLocked(Event{Type: "campaign", State: st, Error: eventErr})
	j.mu.Unlock()
	j.sync()
	j.Persist()
	j.k.jn.retainTerminal(j.id)
	j.k.tbl.sweep()
	if j.k.onTerminal != nil {
		j.k.onTerminal()
	}
	return true
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// Status snapshots the job for the wire. includeResults controls whether
// result payloads ride along: detail endpoints want them, but the jobs
// listing would otherwise ship O(jobs × boards) on every dashboard poll.
func (j *Job) Status(includeResults bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.restored != nil {
		// Replayed from the journal: the snapshot is the truth — the
		// results that produced it belong to a dead process.
		st := *j.restored
		if !includeResults {
			st.Aggregate = nil
			st.BoardResults = nil
		}
		return st
	}
	st := Status{
		ID: j.id, Kind: j.kind, State: j.state, Boards: j.boards,
		Progress: j.progress, Created: j.created, Error: j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.body != nil {
		j.body(&st, includeResults)
	}
	return st
}

// eventPageSize bounds how many journaled events one eventsSince call pages
// back into memory for a deep resume; the SSE loop drains page after page.
const eventPageSize = 512

// eventsSince returns the events at sequence ≥ from, whether the job is
// terminal, and a channel that is closed on the next change. The triple lets
// an SSE stream drain history, then block until there is more. Sequences
// below the in-memory tail — trimmed live history, or any history of a job
// restored after a restart — are paged from the journal, so a client can
// resume from sequence 0 without the process holding the log in RAM.
func (j *Job) eventsSince(from int) ([]Event, bool, <-chan struct{}) {
	j.mu.Lock()
	base := j.eventsBase
	total := base + len(j.events)
	terminal := j.state.Terminal()
	notify := j.notify
	// from == total is a legitimate tail-wait; anything outside [0, total]
	// is a bogus cursor and replays from the start — otherwise a
	// beyond-the-log cursor would wait forever and never see the terminal
	// event.
	if from < 0 || from > total {
		from = 0
	}
	if from >= base || j.k.jn == nil {
		from = max(from, base) // journaling off: the in-memory tail is all there is
		var evs []Event
		if from < total {
			evs = append(evs, j.events[from-base:]...)
		}
		j.mu.Unlock()
		return evs, terminal, notify
	}
	j.mu.Unlock()
	// Cursor predates the tail: page the gap from the journal. A page may
	// overlap the tail (the same immutable events) or come back short when
	// best-effort writes were dropped; either way the cursor advances by
	// what is served and the next call continues from there.
	if evs := j.k.jn.readEvents(j.id, from, eventPageSize); len(evs) > 0 {
		return evs, terminal, notify
	}
	// Nothing journaled at this depth (a gap): fall forward to the tail.
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...), terminal, notify
}
