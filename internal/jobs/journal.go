package jobs

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/store"
)

// jobMeta is the journaled metadata of one job: its full wire status
// (terminal results included), O(1) in the job's event count. Events are
// appended separately through the store's event log, so a journal write on
// an event mutation costs O(that event), not O(the job's history).
type jobMeta struct {
	Status Status `json:"status"`
}

// jobDocument is the PRE-event-log journaled form: status plus the complete
// embedded event log, rewritten wholesale on every mutation. It survives
// only as the migration decode target — replay detects a v1 payload by its
// non-empty Events, appends those events into the split event log once, and
// rewrites the record as a jobMeta. The shared "status" envelope is what
// lets one decode serve both schemas.
type jobDocument struct {
	Status Status  `json:"status"`
	Events []Event `json:"events"`
}

// journal write-throughs job state into the store, so the job table — not
// just what the jobs produced — survives a restart. Job metadata is one
// record, rewritten only on state transitions; events are appended to the
// store's per-job event log, one O(1) write each, and read back in pages
// for deep SSE/firehose resume. A nil *journal is valid and inert, which is
// how a kernel without a journal store is expressed.
//
// Journal writes are deliberately best-effort: a full disk must degrade
// the service to in-memory semantics (jobs forgotten on restart), not fail
// live campaigns. Failures are counted and surfaced through /healthz;
// readers tolerate the resulting gaps.
type journal struct {
	st store.Store
	// retain, when > 0, trims each terminal job's durable event log to (at
	// least) its last retain events.
	retain int
	errs   atomic.Uint64
}

// retainTerminal applies the journal's retention bound to a job that just
// reached (or was replayed in) a terminal state. Best-effort, like every
// journal write: a failed trim keeps more history, never less.
func (jn *journal) retainTerminal(id string) {
	if jn == nil || jn.retain <= 0 {
		return
	}
	if err := jn.st.TrimJobEvents(id, jn.retain); err != nil {
		jn.errs.Add(1)
	}
}

// Persist journals the job's metadata record. The job's journal mutex is
// held across snapshot AND write: two racing puts (say, the submit
// handler's queued-state write and the worker's running transition) would
// otherwise be free to land on disk in the opposite order of their
// snapshots, leaving a stale status as the job's journaled truth.
func (j *Job) Persist() {
	jn := j.k.jn
	if jn == nil {
		return
	}
	j.jnMu.Lock()
	defer j.jnMu.Unlock()
	if j.jnDropped {
		// The table evicted this job and its record was deleted; writing
		// now would resurrect it on the next restart.
		return
	}
	payload, err := json.Marshal(jobMeta{Status: j.Status(true)})
	if err == nil {
		err = jn.st.PutJob(&store.JobRecord{ID: j.id, Seq: j.seq, Payload: payload})
	}
	if err != nil {
		jn.errs.Add(1)
		j.noteJournalDegraded()
	}
}

// sync drains the job's pending events into the store's event log. The
// drain is serialized by jnMu (outside j.mu, like every journal write), so
// two appenders racing here cannot land their batches out of order — each
// drain takes whatever is queued, in queue order, and the loser finds the
// queue empty. On success the job may trim its in-memory tail down to its
// window; on failure the events stay counted as journal errors and the tail
// is kept whole, so SSE never depends on a write that did not happen.
func (j *Job) sync() {
	jn := j.k.jn
	if jn == nil {
		return
	}
	j.jnMu.Lock()
	defer j.jnMu.Unlock()
	if j.jnDropped {
		return
	}
	j.mu.Lock()
	pending := j.jnPending
	j.jnPending = nil
	j.mu.Unlock()
	recs := jn.records(j.id, pending)
	if len(recs) == 0 {
		return
	}
	if err := jn.st.AppendJobEvents(j.id, recs); err != nil {
		jn.errs.Add(1)
		j.noteJournalDegraded()
		return
	}
	j.trimJournaled(recs[len(recs)-1].Seq + 1)
}

// records encodes events as the store's event-log records; an event that
// cannot be encoded is counted as a journal error and skipped.
func (jn *journal) records(id string, evs []Event) []store.EventRecord {
	recs := make([]store.EventRecord, 0, len(evs))
	for i := range evs {
		payload, err := json.Marshal(&evs[i])
		if err != nil {
			jn.errs.Add(1)
			continue
		}
		recs = append(recs, store.EventRecord{Job: id, Seq: evs[i].Seq, GSeq: evs[i].GSeq, Payload: payload})
	}
	return recs
}

// readEvents pages one job's journaled events with Seq >= from. Corrupt
// payloads are skipped; a store read failure degrades to an empty page (the
// caller falls forward to the in-memory tail).
func (jn *journal) readEvents(id string, from, limit int) []Event {
	if jn == nil {
		return nil
	}
	recs, err := jn.st.ReadJobEvents(id, from, limit)
	if err != nil {
		return nil
	}
	return decodeEventRecords(recs)
}

// firehosePage pages journaled events across all jobs with GSeq > after.
func (jn *journal) firehosePage(after int64, limit int) []Event {
	if jn == nil {
		return nil
	}
	recs, err := jn.st.ReadFirehose(after, limit)
	if err != nil {
		return nil
	}
	return decodeEventRecords(recs)
}

func decodeEventRecords(recs []store.EventRecord) []Event {
	evs := make([]Event, 0, len(recs))
	for _, rec := range recs {
		if rec.Truncated {
			// Synthetic marker, no payload: the store dropped this job's
			// history through rec.Seq. Surface it as its own event type so
			// resuming clients see the gap instead of inferring one.
			evs = append(evs, Event{Seq: rec.Seq, GSeq: rec.GSeq, Job: rec.Job, Type: "truncated"})
			continue
		}
		var ev Event
		if err := json.Unmarshal(rec.Payload, &ev); err != nil {
			continue
		}
		evs = append(evs, ev)
	}
	return evs
}

// drop deletes evicted jobs' records (event logs included) and tombstones
// the jobs, so an in-flight write racing with the eviction cannot write a
// record back.
func (jn *journal) drop(jobs []*Job) {
	if jn == nil {
		return
	}
	for _, j := range jobs {
		j.jnMu.Lock()
		j.jnDropped = true
		jn.remove(j.id)
		j.jnMu.Unlock()
	}
}

// remove drops a journal record by id alone — only for records that never
// became live Jobs in this process (replay overflow), where no racing
// writer exists.
func (jn *journal) remove(id string) {
	if err := jn.st.DeleteJob(id); err != nil {
		jn.errs.Add(1)
	}
}

// Replay rebuilds the job table from the journal at boot. Only metadata
// records and the store's bounded event-log indexes are read — never the
// event bodies — so boot cost is O(jobs), not O(events); deep SSE and
// firehose resumes page events on demand instead. The history bound
// applies: only the newest MaxHistory jobs are adopted, the rest are
// unjournaled. Jobs journaled in a non-terminal state were running or
// queued when the previous process died; they come back failed with
// failMsg. Torn journal records are skipped — replay must degrade, not
// refuse to boot. Old full-document (v1) records are migrated into the
// split layout once, then serve exactly like native ones. Without a
// journal, Replay does nothing.
func (k *Kernel) Replay(failMsg string) error {
	jn := k.jn
	if jn == nil {
		return nil
	}
	recs, err := jn.st.ListJobs()
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	type loaded struct {
		rec    *store.JobRecord
		status Status
	}
	var docs []loaded
	var maxSeq int
	for _, rec := range recs {
		var doc jobDocument
		if err := json.Unmarshal(rec.Payload, &doc); err != nil || doc.Status.ID != rec.ID {
			continue
		}
		if len(doc.Events) > 0 {
			// v1 migration: events move to the event log, then the record is
			// rewritten O(1). Crash between the two replays the migration,
			// and the store's reader-side Seq dedup makes that harmless.
			if err := jn.st.AppendJobEvents(rec.ID, jn.records(rec.ID, doc.Events)); err != nil {
				jn.errs.Add(1)
			}
			if meta, err := json.Marshal(jobMeta{Status: doc.Status}); err == nil {
				if err := jn.st.PutJob(&store.JobRecord{ID: rec.ID, Seq: rec.Seq, Payload: meta}); err != nil {
					jn.errs.Add(1)
				}
			}
		}
		maxSeq = max(maxSeq, rec.Seq)
		docs = append(docs, loaded{rec, doc.Status})
	}
	// The global sequence must resume past every journaled event — read it
	// before retention trims any job, so a dropped job's sequences are
	// never reissued.
	maxGSeq, err := jn.st.LastGSeq()
	if err != nil {
		return fmt.Errorf("replay journal: %w", err)
	}
	// The table's history bound applies to replayed jobs too: keep the
	// newest, unjournal the rest. recs (and so docs) are already in
	// submission order.
	if drop := len(docs) - k.tbl.max; drop > 0 {
		for _, d := range docs[:drop] {
			jn.remove(d.rec.ID)
		}
		docs = docs[drop:]
	}
	// The firehose window starts empty: restart markers appended below draw
	// fresh sequences, and resumes below the window page from the journal.
	k.fh.startAfter(maxGSeq)

	var interrupted []*Job
	for _, d := range docs {
		j := k.restore(d.rec, d.status)
		k.tbl.adopt(j)
		if d.status.State.Terminal() {
			// Retention applies to replayed history too, so a process whose
			// retain bound was lowered (or first set) reclaims disk at boot.
			jn.retainTerminal(j.id)
		} else {
			interrupted = append(interrupted, j)
		}
	}
	k.tbl.bumpSeq(maxSeq)
	for _, j := range interrupted {
		j.failRestored(failMsg)
	}
	return nil
}

// restore rebuilds a Job from its journaled metadata. Restored jobs never
// run again: their context is born cancelled, and their status is served
// from the journaled snapshot. Their events stay in the journal —
// eventsBase starts at the log's end, so any SSE replay pages from the
// store instead of RAM.
func (k *Kernel) restore(rec *store.JobRecord, st Status) *Job {
	nextSeq, _, err := k.jn.st.JobEventStats(rec.ID)
	if err != nil {
		nextSeq = 0
	}
	j := k.newJob(st.Kind, st.Boards, nil)
	j.cancel()
	j.id, j.seq = rec.ID, rec.Seq
	j.state, j.created, j.progress = st.State, st.Created, st.Progress
	j.eventsBase = nextSeq
	j.restored = &st
	return j
}
