// Package jobs is the job/event kernel the daemon (internal/server) and the
// federation coordinator (internal/fed) share: the job table with its
// history bound, per-job event logs, the global firehose behind
// GET /v1/events, journal write-through and replay, and the SSE loops that
// serve all of it. The two binaries differ only in what produces a job's
// events — the engine, or downstream daemons' streams — and in the result
// fields a job adds to its wire status.
package jobs

import (
	"time"

	"repro/internal/engine"
)

// State is a job's lifecycle phase.
type State string

// The job states, in lifecycle order.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// PatternStatus is one fill's outcome in a pattern-study job.
type PatternStatus struct {
	Name          string  `json:"name"`
	FaultsPerMbit float64 `json:"faults_per_mbit"`
	Flip10Share   float64 `json:"flip10_share"`
}

// BoardStatus is one board's outcome in a finished job, summarized for the
// wire (full sweeps stay in the store; this is the dashboard row).
type BoardStatus struct {
	Board         int     `json:"board"`
	Platform      string  `json:"platform"`
	Serial        string  `json:"serial"`
	FromCache     bool    `json:"from_cache,omitempty"`
	FaultsPerMbit float64 `json:"faults_per_mbit,omitempty"`
	VminV         float64 `json:"vmin_v,omitempty"`
	VcrashV       float64 `json:"vcrash_v,omitempty"`
	// IntVminV/IntVcrashV carry the VCCINT rail of a threshold-discovery
	// job (VminV/VcrashV then hold the VCCBRAM rail).
	IntVminV   float64 `json:"int_vmin_v,omitempty"`
	IntVcrashV float64 `json:"int_vcrash_v,omitempty"`
	// ZeroShare is the fraction of the board's BRAMs that never faulted
	// (characterization jobs).
	ZeroShare float64         `json:"zero_share,omitempty"`
	Patterns  []PatternStatus `json:"patterns,omitempty"`
	// Inference is the board's accuracy-vs-voltage curve (nn-inference
	// jobs), deepest level last — the Fig. 11 data, per chip.
	Inference []InferencePoint `json:"inference,omitempty"`
	// Mitigation carries the board's per-arm comparison curves
	// (mitigation jobs), canonical arm order.
	Mitigation []MitigationArmStatus `json:"mitigation,omitempty"`
	Error      string                `json:"error,omitempty"`
	// Sample is the board's contribution to the fleet aggregate
	// (engine.BoardResult.Sample), carried so a federation coordinator folds
	// shard results into the bit-identical aggregate without inverting this
	// row's per-kind projection. Response-only.
	Sample *engine.BoardSample `json:"sample,omitempty"`
}

// MitigationArmStatus is one arm's outcome on one board of a mitigation
// job: the full level curve plus the arm's min-safe voltage and the energy
// saving it buys there.
type MitigationArmStatus struct {
	Arm           string            `json:"arm"`
	MinSafeV      float64           `json:"min_safe_v"`
	EnergySavings float64           `json:"energy_savings"`
	Levels        []MitigationLevel `json:"levels"`
}

// MitigationLevel is one voltage step of a mitigation arm's curve.
type MitigationLevel struct {
	V             float64 `json:"v"`
	FaultsPerMbit float64 `json:"faults_per_mbit"`
	WordErrors    int     `json:"word_errors"`
	Accuracy      float64 `json:"accuracy"`
	EnergyJ       float64 `json:"energy_j"`
	FreqScale     float64 `json:"freq_scale"`
	// Corrected/Detected/Silent break down the ECC arm's decode outcomes.
	Corrected int `json:"corrected,omitempty"`
	Detected  int `json:"detected,omitempty"`
	Silent    int `json:"silent,omitempty"`
}

// InferencePoint is one voltage step of an nn-inference job's accuracy
// curve.
type InferencePoint struct {
	V           float64 `json:"v"`
	Error       float64 `json:"error"`
	WeightFault int     `json:"weight_fault"`
}

// Status is the wire form of a job, returned by submit and job queries.
type Status struct {
	ID       string  `json:"id"`
	Kind     string  `json:"kind"`
	State    State   `json:"state"`
	Boards   int     `json:"boards"`
	Progress float64 `json:"progress"` // 0..100

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`

	Error string `json:"error,omitempty"`

	Aggregate    *engine.Aggregate `json:"aggregate,omitempty"`
	BoardResults []BoardStatus     `json:"board_results,omitempty"`

	// Shards and Retries describe how a federated job was spread across
	// downstream daemons; both stay empty on a single daemon. Retries lists
	// every shard that had to be re-run on a survivor after its original
	// daemon failed mid-campaign.
	Shards  []ShardStatus `json:"shards,omitempty"`
	Retries []ShardRetry  `json:"retries,omitempty"`
}

// ShardStatus summarizes one downstream daemon's share of a federated job.
type ShardStatus struct {
	// Daemon is the downstream base URL the shard ran on.
	Daemon string `json:"daemon"`
	// Boards is how many of the job's boards this daemon executed.
	Boards int `json:"boards"`
	// Jobs lists the downstream job ids the shard was split into.
	Jobs []string `json:"jobs,omitempty"`
	// Stolen counts chunks this daemon pulled from another daemon's queue —
	// the work-stealing telemetry.
	Stolen int `json:"stolen,omitempty"`
}

// ShardRetry records one chunk of boards re-run elsewhere after its daemon
// died or refused mid-campaign.
type ShardRetry struct {
	From   string `json:"from"` // daemon the chunk was assigned to
	To     string `json:"to"`   // survivor that re-ran it
	Boards int    `json:"boards"`
	Reason string `json:"reason"`
}

// Event is one server-sequenced campaign event, streamed over SSE and
// kept in the job's replayable log. Board events mirror engine.Event; the
// terminal "campaign" event closes every per-job stream. Seq orders events
// within one job; GSeq is the server-wide total order the /v1/events
// firehose streams and resumes by, and Job names the job the event belongs
// to — both persist in the journal, so cursors survive restarts.
//
// A "truncated" event is synthetic: the daemon's journal dropped the job's
// event history through Seq (the -job-live-segs cap evicted it mid-flight),
// so a resume from earlier than that cannot be satisfied by anyone. Clients
// should treat it as "events ≤ Seq are gone" and continue from Seq+1.
//
// A "journal_degraded" event marks that a journal write for this job failed
// (full or failing disk): the job keeps running and the live stream stays
// authoritative, but event history at or before this point may not survive
// a daemon restart. Emitted at most once per job. Federated jobs
// additionally use "retry" for a chunk re-run on a survivor.
type Event struct {
	Seq  int    `json:"seq"`
	GSeq int64  `json:"gseq,omitempty"`
	Job  string `json:"job,omitempty"`
	// Type: start | level | done | failed | retry | campaign | truncated |
	// journal_degraded.
	Type      string  `json:"type"`
	Board     int     `json:"board,omitempty"`
	Platform  string  `json:"platform,omitempty"`
	Serial    string  `json:"serial,omitempty"`
	FromCache bool    `json:"from_cache,omitempty"`
	Faults    float64 `json:"faults_per_mbit,omitempty"`
	// V is the voltage of a mitigation "level" event.
	V float64 `json:"v,omitempty"`
	// InferError is the board's classification error at the deepest
	// inference level (done events of nn-inference jobs).
	InferError float64 `json:"infer_error,omitempty"`
	Progress   float64 `json:"progress"`
	State      State   `json:"state,omitempty"` // campaign event only
	Error      string  `json:"error,omitempty"`
}

// ErrorBody is the one JSON error envelope every non-2xx response uses —
// daemon and federation coordinator alike, admission-control 503s
// included. Clients can always decode {"error": "..."}.
type ErrorBody struct {
	Error string `json:"error"`
}
