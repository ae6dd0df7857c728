package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop dispatcher, so tests can run it
// on virtual time.
type clock interface {
	Now() time.Time
	// SleepUntil returns at t, or early with ctx's error.
	SleepUntil(ctx context.Context, t time.Time) error
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// openLoop sends operation i at start+due[i] whatever the system does,
// using `senders` goroutines that take operations in due order. When every
// sender is busy at an operation's due time it goes out late; the caller
// times each operation from its due time, so that wait counts against the
// system rather than vanishing from the figures. It returns when every
// operation has been sent and completed, or ctx ends; sent[i] is when
// operation i actually went out (zero if it never did).
func openLoop(ctx context.Context, clk clock, start time.Time, due []time.Duration, senders int, do func(i int)) (sent []time.Time) {
	sent = make([]time.Time, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if clk.SleepUntil(ctx, start.Add(due[i])) != nil {
					return
				}
				sent[i] = clk.Now()
				do(i)
			}
		}()
	}
	wg.Wait()
	return sent
}

// lateness returns, per operation that was sent, how long after its due time
// it went out.
func lateness(start time.Time, due []time.Duration, sent []time.Time) []time.Duration {
	var out []time.Duration
	for i, s := range sent {
		if !s.IsZero() {
			out = append(out, s.Sub(start.Add(due[i])))
		}
	}
	return out
}
