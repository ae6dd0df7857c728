package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Mem is the hermetic Store used by tests and by deployments that want the
// service API without durability. Records and jobs round-trip through the
// same JSON encoding the Disk store uses, so the serialization path is
// exercised; event records are kept decoded with their payloads cloned on
// the way in and out. Either way callers can never alias stored internals.
type Mem struct {
	mu     sync.RWMutex
	blobs  map[string][]byte        // id → encoded record
	keys   map[string]idxEntry      // id → key + summary + put order
	jobs   map[string][]byte        // job id → encoded journal record
	events map[string][]EventRecord // job id → event records, append order
	seq    int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		blobs:  make(map[string][]byte),
		keys:   make(map[string]idxEntry),
		jobs:   make(map[string][]byte),
		events: make(map[string][]EventRecord),
	}
}

// Put stores the record, replacing any previous version of the same key.
func (m *Mem) Put(rec *Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	key := rec.Key
	id := key.ID()
	m.mu.Lock()
	m.seq++
	m.blobs[id] = raw
	m.keys[id] = idxEntry{
		Key: key, StoredAt: time.Now().UnixNano(), Seq: m.seq,
		Summary: Summarize(rec),
	}
	m.mu.Unlock()
	return nil
}

// Get returns the record stored under k, or ok=false when absent.
func (m *Mem) Get(k Key) (*Record, bool, error) { return m.GetID(k.ID()) }

// GetID returns the record with the given content address.
func (m *Mem) GetID(id string) (*Record, bool, error) {
	m.mu.RLock()
	raw, ok := m.blobs[id]
	m.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, false, fmt.Errorf("store: corrupt blob %s: %w", id, err)
	}
	if err := rec.Validate(); err != nil {
		return nil, false, err
	}
	return &rec, true, nil
}

// List returns the stored records' index in stable order.
func (m *Mem) List() ([]Meta, error) {
	m.mu.RLock()
	out := make([]Meta, 0, len(m.keys))
	for id, e := range m.keys {
		out = append(out, e.meta(id))
	}
	m.mu.RUnlock()
	sortMetas(out)
	return out, nil
}

// Delete removes the record with the given content address.
func (m *Mem) Delete(id string) (Meta, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.keys[id]
	if !ok {
		return Meta{}, false, nil
	}
	delete(m.blobs, id)
	delete(m.keys, id)
	return e.meta(id), true, nil
}

// GC bounds the store to the newest keep records per (platform, serial).
func (m *Mem) GC(keep int) ([]Meta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var removed []Meta
	for _, id := range gcVictims(m.keys, keep) {
		removed = append(removed, m.keys[id].meta(id))
		delete(m.blobs, id)
		delete(m.keys, id)
	}
	return removed, nil
}

// PutJob journals one campaign job, replacing any previous version.
func (m *Mem) PutJob(rec *JobRecord) error {
	if !ValidJobID(rec.ID) {
		return fmt.Errorf("store: malformed job id %q", rec.ID)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode job %s: %w", rec.ID, err)
	}
	m.mu.Lock()
	m.jobs[rec.ID] = raw
	m.mu.Unlock()
	return nil
}

// ListJobs returns every journaled job in submission order.
func (m *Mem) ListJobs() ([]*JobRecord, error) {
	m.mu.RLock()
	raws := make([][]byte, 0, len(m.jobs))
	for _, raw := range m.jobs {
		raws = append(raws, raw)
	}
	m.mu.RUnlock()
	out := make([]*JobRecord, 0, len(raws))
	for _, raw := range raws {
		var rec JobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue
		}
		out = append(out, &rec)
	}
	sortJobs(out)
	return out, nil
}

// DeleteJob removes one journaled job and its event log; an absent id is
// not an error.
func (m *Mem) DeleteJob(id string) error {
	m.mu.Lock()
	delete(m.jobs, id)
	delete(m.events, id)
	m.mu.Unlock()
	return nil
}

// AppendJobEvents appends events to one job's log, cloning each payload.
func (m *Mem) AppendJobEvents(id string, evs []EventRecord) error {
	if !ValidJobID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	m.mu.Lock()
	for _, ev := range evs {
		ev.Job = id
		m.events[id] = append(m.events[id], cloneEvent(ev))
	}
	m.mu.Unlock()
	return nil
}

// cloneEvent copies ev with a payload of its own.
func cloneEvent(ev EventRecord) EventRecord {
	ev.Payload = bytes.Clone(ev.Payload)
	return ev
}

// ReadJobEvents returns id's events with Seq >= from, ascending and
// de-duplicated by Seq, capped at limit.
func (m *Mem) ReadJobEvents(id string, from, limit int) ([]EventRecord, error) {
	if !ValidJobID(id) {
		return nil, fmt.Errorf("store: malformed job id %q", id)
	}
	var out []EventRecord
	m.mu.RLock()
	for _, ev := range m.events[id] {
		if ev.Seq >= from {
			out = append(out, cloneEvent(ev))
		}
	}
	m.mu.RUnlock()
	return capEvents(sortDedupEvents(out), limit), nil
}

// JobEventStats reports the next event sequence and highest global
// sequence in id's log.
func (m *Mem) JobEventStats(id string) (int, int64, error) {
	if !ValidJobID(id) {
		return 0, 0, fmt.Errorf("store: malformed job id %q", id)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var nextSeq int
	var lastG int64
	for _, ev := range m.events[id] {
		nextSeq = max(nextSeq, ev.Seq+1)
		lastG = max(lastG, ev.GSeq)
	}
	return nextSeq, lastG, nil
}

// ReadFirehose returns events across all jobs with GSeq > after, in GSeq
// order, capped at limit.
func (m *Mem) ReadFirehose(after int64, limit int) ([]EventRecord, error) {
	var all []EventRecord
	m.mu.RLock()
	for _, evs := range m.events {
		for _, ev := range evs {
			if ev.GSeq > after {
				all = append(all, cloneEvent(ev))
			}
		}
	}
	m.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].GSeq < all[j].GSeq })
	return capEvents(all, limit), nil
}

// TrimJobEvents drops the job's oldest stored events, keeping the last
// keepLast (by Seq). Mem trims exactly; the Disk store trims whole sealed
// segments, so it may keep more — both honor "never fewer".
func (m *Mem) TrimJobEvents(id string, keepLast int) error {
	if !ValidJobID(id) {
		return fmt.Errorf("store: malformed job id %q", id)
	}
	if keepLast <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	evs := sortDedupEvents(slices.Clone(m.events[id]))
	if len(evs) <= keepLast {
		return nil
	}
	cutoff := evs[len(evs)-keepLast].Seq
	m.events[id] = slices.DeleteFunc(m.events[id], func(ev EventRecord) bool { return ev.Seq < cutoff })
	return nil
}

// LastGSeq reports the highest global sequence in any job's log.
func (m *Mem) LastGSeq() (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var last int64
	for _, evs := range m.events {
		for _, ev := range evs {
			last = max(last, ev.GSeq)
		}
	}
	return last, nil
}

// Close is a no-op.
func (m *Mem) Close() error { return nil }

// Len returns the number of stored records.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blobs)
}
