package main

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// timedStore is a store.Store decorator that records one span per call and
// counts failed calls. The serving workloads hand it to the daemon and the
// coordinator in the traced run only.
type timedStore struct {
	inner  store.Store
	tr     *tracer
	errs   atomic.Int64
	events atomic.Int64 // event records appended
}

var _ store.Store = (*timedStore)(nil)

func (s *timedStore) done(name, job string, start time.Time, err error) {
	s.tr.record("store."+name, job, start, time.Now())
	if err != nil {
		s.errs.Add(1)
	}
}

func (s *timedStore) Put(rec *store.Record) error {
	t := time.Now()
	err := s.inner.Put(rec)
	s.done("put", "", t, err)
	return err
}

func (s *timedStore) Get(k store.Key) (*store.Record, bool, error) {
	t := time.Now()
	rec, ok, err := s.inner.Get(k)
	s.done("get", "", t, err)
	return rec, ok, err
}

func (s *timedStore) GetID(id string) (*store.Record, bool, error) {
	t := time.Now()
	rec, ok, err := s.inner.GetID(id)
	s.done("get", "", t, err)
	return rec, ok, err
}

func (s *timedStore) List() ([]store.Meta, error) {
	t := time.Now()
	ms, err := s.inner.List()
	s.done("list", "", t, err)
	return ms, err
}

func (s *timedStore) Delete(id string) (store.Meta, bool, error) {
	t := time.Now()
	m, ok, err := s.inner.Delete(id)
	s.done("delete", "", t, err)
	return m, ok, err
}

func (s *timedStore) GC(keep int) ([]store.Meta, error) {
	t := time.Now()
	ms, err := s.inner.GC(keep)
	s.done("gc", "", t, err)
	return ms, err
}

func (s *timedStore) PutJob(rec *store.JobRecord) error {
	t := time.Now()
	err := s.inner.PutJob(rec)
	s.done("putjob", rec.ID, t, err)
	return err
}

func (s *timedStore) ListJobs() ([]*store.JobRecord, error) {
	t := time.Now()
	js, err := s.inner.ListJobs()
	s.done("listjobs", "", t, err)
	return js, err
}

func (s *timedStore) DeleteJob(id string) error {
	t := time.Now()
	err := s.inner.DeleteJob(id)
	s.done("deletejob", id, t, err)
	return err
}

func (s *timedStore) AppendJobEvents(id string, evs []store.EventRecord) error {
	t := time.Now()
	err := s.inner.AppendJobEvents(id, evs)
	s.done("append", id, t, err)
	s.events.Add(int64(len(evs)))
	return err
}

func (s *timedStore) ReadJobEvents(id string, from, limit int) ([]store.EventRecord, error) {
	t := time.Now()
	evs, err := s.inner.ReadJobEvents(id, from, limit)
	s.done("readevents", id, t, err)
	return evs, err
}

func (s *timedStore) JobEventStats(id string) (int, int64, error) {
	t := time.Now()
	n, g, err := s.inner.JobEventStats(id)
	s.done("eventstats", id, t, err)
	return n, g, err
}

func (s *timedStore) ReadFirehose(after int64, limit int) ([]store.EventRecord, error) {
	t := time.Now()
	evs, err := s.inner.ReadFirehose(after, limit)
	s.done("readfirehose", "", t, err)
	return evs, err
}

func (s *timedStore) TrimJobEvents(id string, keepLast int) error {
	t := time.Now()
	err := s.inner.TrimJobEvents(id, keepLast)
	s.done("trim", id, t, err)
	return err
}

func (s *timedStore) LastGSeq() (int64, error) {
	t := time.Now()
	g, err := s.inner.LastGSeq()
	s.done("lastgseq", "", t, err)
	return g, err
}

func (s *timedStore) Close() error { return s.inner.Close() }

// timedTransport records one span per HTTP round trip — request written to
// response headers read — named prefix+class, and counts calls and failed
// calls (transport errors and 5xx answers). Stream bodies are read after
// RoundTrip returns, so a stream's span is its time to first byte.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	prefix string
	calls  atomic.Int64
	failed atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.calls.Add(1)
	if err != nil || resp.StatusCode >= 500 {
		t.failed.Add(1)
	}
	class, job := classify(req)
	t.tr.record(t.prefix+class, job, start, time.Now())
	return resp, err
}

// classify names the API call a request makes and the job it concerns.
func classify(req *http.Request) (class, job string) {
	path := req.URL.Path
	switch {
	case req.Method == http.MethodPost && path == "/v1/campaigns":
		return "submit", ""
	case strings.HasPrefix(path, "/v1/jobs/"):
		id, rest, _ := strings.Cut(strings.TrimPrefix(path, "/v1/jobs/"), "/")
		if rest == "events" {
			return "events", id
		}
		return "status", id
	case path == "/v1/events":
		return "firehose", ""
	case path == "/v1/vmin":
		return "vmin", ""
	case strings.HasPrefix(path, "/v1/fvms"):
		return "fvms", ""
	case path == "/healthz":
		return "health", ""
	}
	return "other", ""
}
