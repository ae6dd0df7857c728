package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job share
// job; parent indexes the enclosing span in the tracer (-1 for a root).
type span struct {
	name       string
	job        string
	parent     int
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay untraced; on gates recording so a
// traced run can alternate traced and untraced windows to measure its own
// overhead.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{}
	t.on.Store(true)
	return t
}

// active reports whether spans recorded now are kept.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// add records one finished span and returns its index, or -1 when the
// tracer is off.
func (t *tracer) add(s span) int {
	if !t.active() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// record is add for a root span.
func (t *tracer) record(name, job string, start, end time.Time) int {
	return t.add(span{name: name, job: job, parent: -1, start: start, end: end})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName groups span durations, in milliseconds, by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.name] = append(out[s.name], float64(s.dur())/float64(time.Millisecond))
	}
	return out
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children (parallel
// work under one parent) are merged first, so time two children share is
// subtracted once, and a child running past its parent's end is clipped.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered returns how much of p's interval the union of the given spans
// covers.
func covered(p span, spans []span, idx []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].start, spans[i].end
		if a.Before(p.start) {
			a = p.start
		}
		if b.After(p.end) {
			b = p.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
