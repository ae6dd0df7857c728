package jobs

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/store"
)

// TestEvictOnCompletion pins the other half of the retention bugfix: a
// table that filled past max with live jobs must shrink as soon as they
// finish, not wait for the next submission, and eviction reports the
// dropped ids (oldest first) in one pass.
func TestEvictOnCompletion(t *testing.T) {
	var evicted []string
	k := New(Options{IDPrefix: "job", MaxHistory: 2})
	k.tbl.onEvict = func(jobs []*Job) {
		for _, j := range jobs {
			evicted = append(evicted, j.id)
		}
	}
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, k.Create("characterization", 0, nil))
	}
	// All four are live: over max, but nothing may be evicted.
	if got := len(k.tbl.list()); got != 4 {
		t.Fatalf("table holds %d live jobs, want 4", got)
	}
	for _, j := range jobs {
		j.Start()
		j.Finish(Done, "", nil)
	}
	if got := k.tbl.list(); len(got) != 2 ||
		got[0].ID != jobs[2].id || got[1].ID != jobs[3].id {
		t.Fatalf("after completions table lists %+v, want the newest two", got)
	}
	if len(evicted) != 2 || evicted[0] != jobs[0].id || evicted[1] != jobs[1].id {
		t.Fatalf("evictions reported %v, want oldest-first %v", evicted,
			[]string{jobs[0].id, jobs[1].id})
	}
}

// TestFirehoseSequencingAndWindow covers the multiplexer in isolation:
// global sequences are dense and monotonic, since() resumes mid-stream, a
// cursor below the window reports !ok (the handler pages the journal), and
// startAfter() continues the numbering after a (simulated) restart.
func TestFirehoseSequencingAndWindow(t *testing.T) {
	fh := newFirehose(4)
	for i := 0; i < 6; i++ {
		ev := Event{Seq: i, Job: "job-0001", Type: "start"}
		fh.append(&ev)
		if ev.GSeq != int64(i+1) {
			t.Fatalf("event %d stamped gseq %d, want %d", i, ev.GSeq, i+1)
		}
	}
	// The window holds the newest 4 (gseq 3..6); a cursor inside it
	// resumes exactly, one before it must be paged from the journal.
	evs, _, ok := fh.since(4)
	if !ok || len(evs) != 2 || evs[0].GSeq != 5 || evs[1].GSeq != 6 {
		t.Fatalf("since(4) = %+v, ok=%v", evs, ok)
	}
	if lw := fh.lowWater(); lw != 2 {
		t.Fatalf("lowWater = %d, want 2 (gseq 1..2 dropped)", lw)
	}
	if _, _, ok := fh.since(0); ok {
		t.Fatal("cursor below the window must report !ok")
	}
	if evs, _, ok := fh.since(2); !ok || len(evs) != 4 || evs[0].GSeq != 3 {
		t.Fatalf("window-edge cursor replayed %+v, ok=%v, want gseq 3..6", evs, ok)
	}
	if evs, _, ok := fh.since(99); !ok || len(evs) != 0 {
		t.Fatalf("future cursor replayed %+v, ok=%v", evs, ok)
	}

	// A fresh firehose resumed past journaled history continues the counter
	// and pages everything older from the journal.
	fh2 := newFirehose(16)
	fh2.startAfter(7)
	ev := Event{Job: "job-0002", Type: "start"}
	fh2.append(&ev)
	if ev.GSeq != 8 {
		t.Fatalf("post-restart append stamped gseq %d, want 8", ev.GSeq)
	}
	if _, _, ok := fh2.since(2); ok {
		t.Fatal("pre-restart cursor must page from the journal, not the window")
	}
	if evs, _, ok := fh2.since(7); !ok || len(evs) != 1 || evs[0].GSeq != 8 {
		t.Fatalf("live-edge resume = %+v, ok=%v", evs, ok)
	}
}

// TestFirehoseTrimAmortized pins the cost of the window trim: once the
// window is full, an append must not copy the whole window. Three windows'
// worth of appends past full allocate a small fraction of one window copy
// per append, and the window still holds exactly the newest events.
func TestFirehoseTrimAmortized(t *testing.T) {
	const window, n = 1024, 3 * 1024
	fh := newFirehose(window)
	for i := 0; i < window; i++ {
		ev := Event{Job: "job-0001", Type: "level"}
		fh.append(&ev)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		ev := Event{Job: "job-0001", Type: "level"}
		fh.append(&ev)
	}
	runtime.ReadMemStats(&after)
	perAppend := float64(after.TotalAlloc-before.TotalAlloc) / n
	windowCopy := float64(window * unsafe.Sizeof(Event{}))
	if perAppend > windowCopy/32 {
		t.Fatalf("full-window append allocates %.0f B on average; one window copy is %.0f B", perAppend, windowCopy)
	}
	evs, _, ok := fh.since(fh.lowWater())
	if !ok || len(evs) != window || evs[0].GSeq != n+1 || evs[window-1].GSeq != window+n {
		t.Fatalf("window after %d appends holds %d events from gseq %d, ok=%v; want %d from %d",
			window+n, len(evs), evs[0].GSeq, ok, window, n+1)
	}
}

// TestDecodeTruncationMarker pins the journal's handling of the store's
// synthetic Truncated records: they decode to a payload-free "truncated"
// event carrying the drop edge, and ordinary records around them still
// decode from their payloads.
func TestDecodeTruncationMarker(t *testing.T) {
	recs := []store.EventRecord{
		{Job: "job-0001", Seq: 9, GSeq: 42, Truncated: true},
		{Job: "job-0001", Seq: 10, GSeq: 43, Payload: []byte(`{"seq":10,"gseq":43,"job":"job-0001","type":"start"}`)},
	}
	evs := decodeEventRecords(recs)
	if len(evs) != 2 {
		t.Fatalf("decoded %d events, want 2", len(evs))
	}
	if evs[0].Type != "truncated" || evs[0].Seq != 9 || evs[0].GSeq != 42 || evs[0].Job != "job-0001" {
		t.Fatalf("marker decoded as %+v", evs[0])
	}
	if evs[1].Type != "start" || evs[1].Seq != 10 {
		t.Fatalf("event after marker decoded as %+v", evs[1])
	}
}
