package server

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// TestFinishClassifiesCancellation drives Job.finish the way the worker
// does after RunCampaign returns, across the error shapes the engine can
// produce. The regression cases: an error wrapping DeadlineExceeded, and a
// board-level error that stringifies the sentinel without wrapping it —
// both previously landed a deliberately-cancelled job in "failed".
func TestFinishClassifiesCancellation(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		cancelCtx bool
		want      JobState
	}{
		{"success", nil, false, JobDone},
		{"plain sentinel", context.Canceled, true, JobCancelled},
		{"wrapped sentinel", fmt.Errorf("campaign: %w", context.Canceled), true, JobCancelled},
		{"wrapped deadline, live ctx", fmt.Errorf("engine: %w", context.DeadlineExceeded), false, JobCancelled},
		{"non-wrapping board error after cancel",
			fmt.Errorf("board 3: sweep aborted: %v", context.Canceled), true, JobCancelled},
		{"real failure", errors.New("bram row decoder latch-up"), false, JobFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Server{k: jobs.New(jobs.Options{})}
			j := s.newJob(engine.Campaign{}, nil)
			if !j.Start() {
				t.Fatal("Start refused a queued job")
			}
			if tc.cancelCtx {
				j.Cancel()
			}
			j.finish(nil, tc.err)
			if got := j.Status(false).State; got != tc.want {
				t.Fatalf("finish(%v) with ctx.Err()=%v classified %q, want %q",
					tc.err, j.Context().Err(), got, tc.want)
			}
		})
	}
}
