package server

import (
	"context"
	"errors"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/platform"
)

// Job is one queued or running campaign: the kernel job (lifecycle, event
// log, journal) plus what only the daemon has — the engine inputs and, once
// finished, the campaign's wire results.
type Job struct {
	*jobs.Job
	campaign  engine.Campaign
	inventory []platform.Platform
	// agg and rows are the finished campaign's wire results, projected once
	// by finish; written and read under the kernel job's lock.
	agg  *engine.Aggregate
	rows []BoardStatus
}

// newJob registers a queued campaign in the kernel's table.
func (s *Server) newJob(c engine.Campaign, inv []platform.Platform) *Job {
	j := &Job{campaign: c, inventory: inv}
	j.Job = s.k.Create(c.Kind.String(), len(inv), j.statusBody)
	return j
}

// appendEngineEvent records one engine event in the job's log.
func (j *Job) appendEngineEvent(ev engine.Event) {
	je := jobs.Event{
		Type:       ev.Kind.String(),
		Board:      ev.Board,
		Platform:   ev.Platform,
		Serial:     ev.Serial,
		FromCache:  ev.FromCache,
		Faults:     ev.Faults,
		V:          ev.V,
		InferError: ev.InferError,
		Progress:   ev.Progress,
	}
	if ev.Err != nil {
		je.Error = ev.Err.Error()
	}
	j.Append(je)
}

// finish records the campaign outcome and moves the job to its terminal
// state.
//
// Cancellation is classified by intent, not by error identity: an engine
// error that wraps context.DeadlineExceeded, or a board-level error that
// does not wrap either sentinel at all, still means "the job's context was
// ended on purpose" whenever the job's context is done — reporting such a
// job as failed would send an operator hunting for a fault that was
// actually their own DELETE.
func (j *Job) finish(res *engine.CampaignResult, err error) {
	state, msg := jobs.Done, ""
	if err != nil {
		msg = err.Error()
		state = jobs.Failed
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || j.Context().Err() != nil {
			state = jobs.Cancelled
		}
	}
	// Project the results before the terminal transition, and copy them out
	// of res: a finished job in the history keeps its wire rows, not the
	// engine's sweeps and FVMs.
	var agg *engine.Aggregate
	var rows []BoardStatus
	if res != nil {
		a := res.Agg
		agg = &a
		for i := range res.Boards {
			rows = append(rows, boardStatus(&res.Boards[i]))
		}
	}
	j.Finish(state, msg, func() { j.agg, j.rows = agg, rows })
}

// statusBody adds the aggregate and per-board rows to a finished job's
// status.
func (j *Job) statusBody(st *jobs.Status, includeResults bool) {
	if j.agg == nil || !includeResults {
		return
	}
	agg := *j.agg
	st.Aggregate = &agg
	st.BoardResults = append([]BoardStatus(nil), j.rows...)
}

// boardStatus projects one board's engine result onto its wire row.
func boardStatus(r *engine.BoardResult) BoardStatus {
	sample := r.Sample()
	bs := BoardStatus{
		Board: r.Board, Platform: r.Platform, Serial: r.Serial, FromCache: r.FromCache,
		Sample: &sample,
	}
	if r.Err != nil {
		bs.Error = r.Err.Error()
	}
	if s := r.FinalSweep(); s != nil && len(s.Levels) > 0 {
		bs.FaultsPerMbit = s.Final().FaultsPerMbit
		bs.VminV = engine.ObservedVmin(s)
		bs.VcrashV = s.Final().V
	}
	if th := r.BRAMThresholds; th != nil {
		bs.VminV, bs.VcrashV = th.Vmin, th.Vcrash
	}
	if th := r.IntThresholds; th != nil {
		bs.IntVminV, bs.IntVcrashV = th.Vmin, th.Vcrash
	}
	if r.FVM != nil {
		bs.ZeroShare = r.FVM.ZeroShare()
	}
	for _, pr := range r.Patterns {
		bs.Patterns = append(bs.Patterns, PatternStatus{
			Name: pr.Name, FaultsPerMbit: pr.FaultsPerMbit, Flip10Share: pr.Flip10Share,
		})
	}
	for _, ir := range r.Inference {
		bs.Inference = append(bs.Inference, InferencePoint{
			V: ir.V, Error: ir.Error, WeightFault: ir.WeightFault,
		})
	}
	for ai := range r.Mitigation {
		arm := &r.Mitigation[ai]
		as := MitigationArmStatus{
			Arm: arm.Arm, MinSafeV: arm.MinSafeV, EnergySavings: arm.EnergySavings,
		}
		for _, pt := range arm.Levels {
			as.Levels = append(as.Levels, MitigationLevel{
				V: pt.V, FaultsPerMbit: pt.FaultsPerMbit, WordErrors: pt.WordErrors,
				Accuracy: pt.Accuracy, EnergyJ: pt.EnergyJ, FreqScale: pt.FreqScale,
				Corrected: pt.Corrected, Detected: pt.Detected, Silent: pt.Silent,
			})
		}
		bs.Mitigation = append(bs.Mitigation, as)
	}
	return bs
}
