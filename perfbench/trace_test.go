package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedDirectChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "job", parent: -1, start: at(0), end: at(100)},
		{name: "a", parent: 0, start: at(10), end: at(30)},
		{name: "b", parent: 0, start: at(20), end: at(50)},  // overlaps a: counted once
		{name: "c", parent: 0, start: at(90), end: at(120)}, // clipped at the parent's end
		{name: "a.1", parent: 1, start: at(15), end: at(25)},
		{name: "other", parent: -1, start: at(0), end: at(5)},
	}
	self := selfTimes(spans)
	want := []time.Duration{
		50 * time.Millisecond, // 100 − [10,50] − [90,100]
		10 * time.Millisecond, // 20 − its own child, not the parent's
		30 * time.Millisecond,
		30 * time.Millisecond,
		10 * time.Millisecond,
		5 * time.Millisecond,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	var none *tracer
	if none.record("x", "", time.Now(), time.Now()) != -1 || none.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	tr.record("kept", "j1", time.Now(), time.Now())
	tr.on.Store(false)
	tr.record("dropped", "j1", time.Now(), time.Now())
	got := tr.snapshot()
	if len(got) != 1 || got[0].name != "kept" || got[0].job != "j1" {
		t.Fatalf("spans = %+v, want only the one recorded while on", got)
	}
}
