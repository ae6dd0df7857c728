package fed

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/server"
)

// fedJob is one federated campaign: the kernel job (lifecycle, re-stamped
// event log, coordinator journal) plus the coordinator's bookkeeping for a
// submission it sharded across downstream daemons. Downstream events are
// re-stamped under the coordinator's own per-job and global sequences — the
// numbering clients resume by.
type fedJob struct {
	*jobs.Job
	req  server.CampaignRequest // boards already expanded into flat
	flat []server.BoardSpec     // one single-replica spec per board, global order

	// mu guards the merge state below. It nests inside the kernel job's
	// lock (statusBody runs under it), so it is never held across a call
	// into the kernel job.
	mu sync.Mutex
	// boardDone marks boards that already counted toward progress, so a
	// shard retried after a partial failure cannot double-count.
	boardDone []bool
	doneCount int
	results   []server.BoardStatus
	agg       *engine.Aggregate
	shards    []server.ShardStatus
	retries   []server.ShardRetry
}

func (c *Coordinator) newFedJob(req server.CampaignRequest, flat []server.BoardSpec) *fedJob {
	j := &fedJob{
		req: req, flat: flat,
		boardDone: make([]bool, len(flat)),
		results:   make([]server.BoardStatus, len(flat)),
	}
	j.Job = c.k.Create(req.Kind, len(flat), j.statusBody)
	return j
}

// statusBody adds the shard map and retry history — the federation-visible
// part of "the retry is surfaced in job detail" — and, once merged, the
// aggregate and per-board rows.
func (j *fedJob) statusBody(st *jobs.Status, includeResults bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st.Shards = append([]server.ShardStatus(nil), j.shards...)
	st.Retries = append([]server.ShardRetry(nil), j.retries...)
	if includeResults && j.agg != nil {
		agg := *j.agg
		st.Aggregate = &agg
		st.BoardResults = append([]server.BoardStatus(nil), j.results...)
	}
}

// boardEvent re-stamps one downstream board event under the coordinator's
// numbering: the board index is remapped into the job's global fleet order
// and progress is recomputed from the coordinator's own completion count
// (downstream progress is meaningless here — each shard reports percent of
// its own slice). Duplicate completions from a retried shard keep the event
// (the stream is an audit trail) but do not re-count.
func (j *fedJob) boardEvent(ev server.JobEvent, globalBoard int) {
	j.mu.Lock()
	ev.Board = globalBoard
	if (ev.Type == "done" || ev.Type == "failed") && !j.boardDone[globalBoard] {
		j.boardDone[globalBoard] = true
		j.doneCount++
	}
	ev.Progress = float64(j.doneCount) / float64(len(j.flat)) * 100
	j.mu.Unlock()
	j.Append(ev)
}

// merge folds the merged board rows into the fleet aggregate and finishes
// the job done. Each row carries the board's aggregate sample as the daemon
// computed it; a row without one — a board failBoards gave up on — folds
// as failed. The fold runs over the global fleet order, so the summary is
// bit-identical to the unsharded run.
func (j *fedJob) merge() {
	j.mu.Lock()
	samples := make([]engine.BoardSample, len(j.results))
	for i, bs := range j.results {
		samples[i] = engine.BoardSample{Failed: true}
		if bs.Sample != nil {
			samples[i] = *bs.Sample
		}
	}
	j.mu.Unlock()
	agg := engine.AggregateSamples(samples)
	j.Finish(jobs.Done, "", func() {
		j.mu.Lock()
		j.agg = &agg
		j.mu.Unlock()
	})
}
