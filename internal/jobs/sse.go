package jobs

import (
	"cmp"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// WriteJSON emits v as the indented JSON body of a response with the given
// status — the one response encoding the daemon and the coordinator share.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers with the shared ErrorBody envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg})
}

// RequireBearer gates a mutating handler on token. With no token it is a
// pass-through; with one, the request must present the exact token as
// `Authorization: Bearer <token>` — compared in constant time, so the check
// leaks nothing about the prefix it rejected on.
func RequireBearer(token string, h http.HandlerFunc) http.HandlerFunc {
	if token == "" {
		return h
	}
	want := []byte(token)
	return func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(strings.TrimSpace(tok)), want) != 1 {
			WriteError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		h(w, r)
	}
}

// Lookup resolves the request's {id} path value, answering 404 when the
// table holds no such job.
func (k *Kernel) Lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := k.tbl.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", r.PathValue("id")))
	}
	return j, ok
}

// HandleJobs serves GET /v1/jobs: every job, oldest first, results omitted.
func (k *Kernel) HandleJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, k.tbl.list())
}

// HandleJob serves GET /v1/jobs/{id}: one job's full status.
func (k *Kernel) HandleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := k.Lookup(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Status(true))
	}
}

// sseRetryHint is the reconnect delay SSE streams advertise to clients.
const sseRetryHint = 2 * time.Second

// startSSE emits the stream headers, a retry hint, and an immediate flush,
// returning the flusher (or false when the writer cannot stream). The
// retry hint and the keepalive ticker the loops run afterwards are what
// keep an idle stream alive across proxies: without them a stream attached
// to a job stuck behind a full queue writes nothing after the headers
// until the job starts, and an intermediary severs it long before that.
func startSSE(w http.ResponseWriter) (http.Flusher, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "response writer cannot stream")
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: %d\n\n", sseRetryHint.Milliseconds())
	flusher.Flush()
	return flusher, true
}

// sseCursor reads a resume cursor from Last-Event-ID (or ?after=).
func sseCursor(r *http.Request) string {
	return cmp.Or(r.Header.Get("Last-Event-ID"), r.URL.Query().Get("after"))
}

// writeEvent emits one SSE frame carrying ev under the given id.
func writeEvent(w http.ResponseWriter, id int64, ev Event) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, ev.Type, data)
	return true
}

// wait blocks until changed fires, writing a comment keepalive on every idle
// tick — proxies pass it through, clients ignore it, and both learn the
// connection is still alive. It reports false once the client hangs up or
// the kernel's base context ends.
func (k *Kernel) wait(w http.ResponseWriter, r *http.Request, flusher http.Flusher, keepalive *time.Ticker, changed <-chan struct{}) bool {
	for {
		select {
		case <-changed:
			return true
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return false
		case <-k.base.Done():
			return false
		}
	}
}

// HandleEvents streams one job's event log as Server-Sent Events: history
// first, then live events, closing after the terminal "campaign" event. The
// Last-Event-ID header (or ?after=) resumes a dropped stream; comment
// keepalives flow while the job is idle (e.g. queued behind a full worker
// pool).
func (k *Kernel) HandleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := k.Lookup(w, r)
	if !ok {
		return
	}
	// A malformed or negative resume cursor replays from the start rather
	// than reaching eventsSince with an index that would slice negatively.
	next := 0
	if n, err := strconv.Atoi(sseCursor(r)); err == nil && n >= 0 {
		next = n + 1
	}
	flusher, ok := startSSE(w)
	if !ok {
		return
	}
	keepalive := time.NewTicker(k.keepAlive)
	defer keepalive.Stop()
	for {
		evs, terminal, changed := j.eventsSince(next)
		for _, ev := range evs {
			if !writeEvent(w, int64(ev.Seq), ev) {
				return
			}
			next = ev.Seq + 1
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			// Everything up to and including the terminal event is out.
			if evs, _, _ := j.eventsSince(next); len(evs) == 0 {
				return
			}
			continue
		}
		if !k.wait(w, r, flusher, keepalive, changed) {
			return
		}
	}
}

// firehosePageSize bounds how many journaled events one deep-resume page
// pulls back into memory; the loop pages until the cursor reaches the live
// window.
const firehosePageSize = 512

// HandleFirehose streams every job's events, multiplexed in global-sequence
// order and tagged with job ids — the fleet dashboard feed. The stream has
// no terminal event; it runs until the client disconnects or the kernel's
// base context ends. Last-Event-ID (or ?after=) carries a global sequence,
// which survives restarts via the journal; a cursor older than the
// in-memory replay window — any depth, including 0 across a restart — is
// paged out of the journal until it catches up to the window, then streams
// live. Only with no journal (or a gap from dropped best-effort writes)
// does the cursor clamp forward to the oldest retained event.
func (k *Kernel) HandleFirehose(w http.ResponseWriter, r *http.Request) {
	var after int64
	if n, err := strconv.ParseInt(sseCursor(r), 10, 64); err == nil && n > 0 {
		after = n
	}
	flusher, ok := startSSE(w)
	if !ok {
		return
	}
	keepalive := time.NewTicker(k.keepAlive)
	defer keepalive.Stop()
	emit := func(evs []Event) bool {
		for _, ev := range evs {
			if !writeEvent(w, ev.GSeq, ev) {
				return false
			}
			after = ev.GSeq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		return true
	}
	for {
		evs, changed, inWindow := k.fh.since(after)
		if !inWindow {
			if page := k.jn.firehosePage(after, firehosePageSize); len(page) > 0 {
				if !emit(page) {
					return
				}
				continue
			}
			// Nothing journaled below the window: clamp to its edge. The
			// low-water mark only rises, so this always makes progress.
			after = k.fh.lowWater()
			continue
		}
		if !emit(evs) || !k.wait(w, r, flusher, keepalive, changed) {
			return
		}
	}
}
