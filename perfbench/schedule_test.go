package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping jumps the clock, work advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	return nil
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopChargesAStallToTheSendsItDelays(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	due := []time.Duration{0, ms(10), ms(20), ms(30), ms(200)}
	done := make([]time.Time, len(due))
	sent := openLoop(context.Background(), clk, start, due, 1, func(i int) {
		if i == 0 {
			clk.advance(ms(50)) // the system stalls on the first request
		} else {
			clk.advance(ms(1))
		}
		done[i] = clk.Now()
	})

	wantSent := []time.Duration{0, ms(50), ms(51), ms(52), ms(200)}
	for i, w := range wantSent {
		if got := sent[i].Sub(start); got != w {
			t.Errorf("op %d sent at %v, want %v", i, got, w)
		}
	}
	// Lateness is measured against the schedule, so the stall shows on
	// every operation it held back and on none after the backlog cleared.
	wantLate := []time.Duration{0, ms(40), ms(31), ms(22), 0}
	for i, l := range lateness(start, due, sent) {
		if l != wantLate[i] {
			t.Errorf("op %d late by %v, want %v", i, l, wantLate[i])
		}
	}
	// Latency runs from the due time, not the send time: op 1 took 1ms
	// once sent, but its caller waited 41ms.
	if got := done[1].Sub(start.Add(due[1])); got != ms(41) {
		t.Errorf("op 1 latency from due = %v, want 41ms", got)
	}
}

func TestLatenessSkipsOperationsNeverSent(t *testing.T) {
	start := time.Unix(0, 0)
	due := []time.Duration{0, time.Second}
	sent := []time.Time{start.Add(time.Millisecond), {}}
	got := lateness(start, due, sent)
	if len(got) != 1 || got[0] != time.Millisecond {
		t.Fatalf("lateness = %v, want [1ms]", got)
	}
}

func TestOpenLoopStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sent := openLoop(ctx, realClock{}, time.Now(), []time.Duration{time.Hour}, 2, func(int) {
		t.Error("an operation ran after cancellation")
	})
	if !sent[0].IsZero() {
		t.Error("a cancelled operation was recorded as sent")
	}
}
