package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"mediasmt/internal/exp"
)

// Job statuses. A job moves queued → running → ok|failed; "failed"
// covers both total and partial failure — the per-experiment statuses
// and config errors in the status view carry the partition, exactly as
// exps' exit codes 1 and 3 do for the CLI.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobOK      = "ok"
	JobFailed  = "failed"
)

// job is one submitted experiment run. The immutable fields are set at
// submission; everything under mu is the lifecycle the handlers read.
type job struct {
	id       string
	ids      []string // resolved experiment ids, paper order preserved
	opts     exp.Options
	priority int
	created  time.Time
	cancel   context.CancelFunc

	mu       sync.Mutex
	status   string
	rs       *exp.ResultSet
	errMsg   string
	history  []sseEvent    // every event so far, append-only: streams read it in place
	streams  int           // SSE streams following the running job
	wake     chan struct{} // made by a waiting stream, closed by the next publish
	finished chan struct{} // closed when the job settles
}

// sseEvent is one server-sent event: a name plus its JSON payload.
type sseEvent struct {
	name string
	data []byte
}

func newJob(id string, ids []string, opts exp.Options, priority int) *job {
	return &job{
		id:       id,
		ids:      ids,
		opts:     opts,
		priority: priority,
		created:  time.Now().UTC(),
		status:   JobQueued,
		finished: make(chan struct{}),
	}
}

// publish appends an event to the job's history and wakes the streams
// waiting for it. It never blocks on a client: each stream catches up
// from the history at its own pace.
func (j *job) publish(name string, payload any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(name, payload)
}

func (j *job) publishLocked(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Unmarshalable payloads are a programming error; degrade to the
		// same envelope shape every other error response uses.
		data, _ = json.Marshal(ErrorEnvelope{Error: ErrorBody{Code: ErrInternal, Message: err.Error()}})
	}
	j.history = append(j.history, sseEvent{name: name, data: data})
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// events returns the history from position n on and, while the job
// runs, the channel the next publish closes. Once the job settled the
// channel is nil and the events end with its done event.
func (j *job) events(n int) ([]sseEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.settledLocked() {
		return j.history[n:], nil
	}
	if j.wake == nil {
		j.wake = make(chan struct{})
	}
	return j.history[n:], j.wake
}

// follow counts a stream in (+1) or out (-1) of the job's Subscribers.
// A stream that finds the job settled is not counted and follow
// reports false: the history is all it will send.
func (j *job) follow(d int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if d > 0 && j.settledLocked() {
		return false
	}
	j.streams += d
	return true
}

func (j *job) settledLocked() bool { return j.status == JobOK || j.status == JobFailed }

// setRunning marks the transition out of the queue and announces it on
// the event stream.
func (j *job) setRunning() {
	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()
	j.publish("status", map[string]string{"id": j.id, "status": JobRunning})
}

// finish records the outcome and emits the final done event (carrying
// the same view GET /v1/jobs/{id} serves), which wakes every waiting
// stream, all in one critical section: a job that reads as settled has
// already closed finished, so the job store may evict it.
func (j *job) finish(rs *exp.ResultSet, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.rs = rs
	if err != nil {
		j.status = JobFailed
		j.errMsg = err.Error()
	} else {
		j.status = JobOK
	}
	j.publishLocked("done", j.viewLocked())
	close(j.finished)
}

// FailedExperiment is the status view's per-experiment failure record:
// which experiment, why, and exactly which simulation configs failed —
// the offending keys a client needs to diagnose a partial run.
type FailedExperiment struct {
	ID           string            `json:"id"`
	Error        string            `json:"error"`
	ConfigErrors []exp.ConfigError `json:"config_errors,omitempty"`
}

// JobView is the JSON shape of GET /v1/jobs/{id} and the SSE done
// event.
type JobView struct {
	ID          string    `json:"id"`
	Status      string    `json:"status"`
	Experiments []string  `json:"experiments"`
	Scale       float64   `json:"scale"`
	Seed        uint64    `json:"seed"`
	MaxCycles   int64     `json:"max_cycles,omitempty"`
	Priority    int       `json:"priority,omitempty"`
	Created     time.Time `json:"created"`
	Error       string    `json:"error,omitempty"`
	// Events is how many SSE events the job has published so far (a
	// reconnecting stream replays exactly this many); Subscribers is
	// how many SSE streams that attached while it ran follow it now.
	Events      int `json:"events"`
	Subscribers int `json:"subscribers"`
	// The remaining fields mirror the ResultSet bookkeeping and are
	// only meaningful once the job settled (status ok or failed).
	Simulations       int64              `json:"simulations"`
	Failed            int                `json:"failed"`
	FailedSims        int                `json:"failed_sims"`
	CacheHits         int64              `json:"cache_hits"`
	CacheMisses       int64              `json:"cache_misses"`
	CacheWrites       int64              `json:"cache_writes"`
	WallSeconds       float64            `json:"wall_seconds"`
	FailedExperiments []FailedExperiment `json:"failed_experiments,omitempty"`
}

// view snapshots the job for the status endpoint. Callers must not
// hold j.mu.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *job) viewLocked() JobView {
	v := JobView{
		ID:          j.id,
		Status:      j.status,
		Experiments: j.ids,
		Scale:       j.opts.Scale,
		Seed:        j.opts.Seed,
		MaxCycles:   j.opts.MaxCycles,
		Priority:    j.priority,
		Created:     j.created,
		Error:       j.errMsg,
		Events:      len(j.history),
		Subscribers: j.streams,
	}
	if rs := j.rs; rs != nil {
		v.Simulations = rs.Simulations
		v.Failed = rs.Failed
		v.FailedSims = rs.FailedSims
		v.CacheHits, v.CacheMisses, v.CacheWrites = rs.CacheHits, rs.CacheMisses, rs.CacheWrites
		v.WallSeconds = rs.WallSeconds
		for _, e := range rs.Experiments {
			if e.Status == exp.StatusFailed {
				v.FailedExperiments = append(v.FailedExperiments, FailedExperiment{
					ID: e.ID, Error: e.Err, ConfigErrors: e.ConfigErrors,
				})
			}
		}
	}
	return v
}

// snapshot returns the settled state the results endpoint needs.
func (j *job) snapshot() (status string, rs *exp.ResultSet) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.rs
}
