package jobs

import (
	"sort"
	"sync"
)

// defaultFirehoseBuffer bounds the firehose's in-memory replay window when
// Options.FirehoseBuffer is zero.
const defaultFirehoseBuffer = 8192

// firehose is the process-wide event multiplexer behind GET /v1/events:
// every job event, tagged with its job id and stamped with a global
// sequence number, in one totally ordered stream. The global sequence is
// what makes the stream resumable — it rides each event into the job
// journal, so after a restart the firehose resumes exactly where the
// previous process left off.
//
// The replay log is a bounded in-memory window holding only events
// appended since boot. A subscriber whose cursor predates the window (a
// deep resume, or any resume across a restart) is paged out of the journal
// by the handler until it catches up to low; live events are never dropped
// for a connected subscriber, because delivery is pull-based off this log.
type firehose struct {
	mu     sync.Mutex
	next   int64   // next global sequence to assign (starts at 1)
	low    int64   // every event with GSeq > low is retained in buf
	buf    []Event // recent events in GSeq order
	max    int
	notify chan struct{}
}

func newFirehose(max int) *firehose {
	if max <= 0 {
		max = defaultFirehoseBuffer
	}
	return &firehose{next: 1, max: max, notify: make(chan struct{})}
}

// append stamps ev with the next global sequence, admits it to the replay
// log, and wakes subscribers. The stamp is written through the pointer so
// the per-job event log keeps it too — that is how the global cursor
// survives in the journal.
func (f *firehose) append(ev *Event) {
	f.mu.Lock()
	ev.GSeq = f.next
	f.next++
	f.buf = append(f.buf, *ev)
	if drop := len(f.buf) - f.max; drop > 0 {
		if g := f.buf[drop-1].GSeq; g > f.low {
			f.low = g
		}
		// Reslice instead of copying the window: the next append that
		// outgrows the shrinking capacity moves only the live events to a
		// fresh array, and the dropped prefix goes with the old one. The
		// window copy is amortized over many appends, not paid on each one
		// (under fh.mu, which nests inside every job lock).
		f.buf = f.buf[drop:]
	}
	close(f.notify)
	f.notify = make(chan struct{})
	f.mu.Unlock()
}

// startAfter resumes the sequence counter after a restart: the next stamp
// is maxGSeq+1, and the (empty) window covers nothing older — deep resumes
// page from the journal.
func (f *firehose) startAfter(maxGSeq int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if maxGSeq >= f.next {
		f.next = maxGSeq + 1
	}
	if maxGSeq > f.low {
		f.low = maxGSeq
	}
}

// lowWater reports the newest global sequence NOT retained in the window —
// a cursor must be >= it for since to serve the resume.
func (f *firehose) lowWater() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.low
}

// since returns the retained events with GSeq > after and a channel closed
// on the next append — the same drain-then-wait triple the per-job streams
// use, minus the terminal flag (the firehose never ends). ok is false when
// the cursor predates the window; the caller must page the gap from the
// journal (or clamp to lowWater when there is none).
func (f *firehose) since(after int64) ([]Event, <-chan struct{}, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if after < f.low {
		return nil, f.notify, false
	}
	i := sort.Search(len(f.buf), func(i int) bool { return f.buf[i].GSeq > after })
	var evs []Event
	if i < len(f.buf) {
		evs = append(evs, f.buf[i:]...)
	}
	return evs, f.notify, true
}
