package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

const (
	// SimsPath is the worker endpoint Remote POSTs one encoded
	// sim.Config to; the worker answers with sim.EncodeResult bytes.
	SimsPath = "/v1/sims"
	// FingerprintHeader carries the coordinator's cache.Fingerprint()
	// (cache format + simulator version). A worker whose fingerprint
	// differs refuses with 409: results from mismatched simulator
	// versions must never silently mix into one result set.
	FingerprintHeader = "X-Mediasmt-Fingerprint"
	// ForwardedHeader marks a request that already crossed one
	// coordinator→worker hop. The worker endpoint turns it into a
	// NoForward context, so a worker that coordinates workers of its
	// own (its StealPool has registered members) executes the
	// simulation locally instead of passing it on — without this, two
	// daemons registered as each other's workers would bounce a single
	// config between them until both exhaust sockets and goroutines.
	ForwardedHeader = "X-Mediasmt-Forwarded"
	// DefaultRequestTimeout bounds one worker request. Full-scale
	// simulations queue behind the worker's pool, so the default is
	// generous; coordinators running reduced scales may tighten it.
	DefaultRequestTimeout = 10 * time.Minute
	// DefaultWorkersPerPeer is a Remote's advertised concurrency when
	// RemoteOptions.Workers is zero, and what each live member adds to
	// a StealPool's Workers: requests are I/O-bound on the
	// coordinator, so a few in flight per peer keeps the peer's own
	// pool busy without flooding it.
	DefaultWorkersPerPeer = 4
	// maxResponseBody bounds a worker response; an encoded result is
	// a few KB, so anything larger is a misbehaving peer.
	maxResponseBody = 8 << 20
)

// RemoteOptions tunes a Remote and, through StealOptions.Remote, the
// Remote a StealPool builds for each member. The zero value is
// usable.
type RemoteOptions struct {
	// Client issues the requests; nil uses a private default client.
	Client *http.Client
	// Timeout bounds each worker request (queueing on the worker
	// included); 0 means DefaultRequestTimeout.
	Timeout time.Duration
	// Workers is the advertised concurrency; 0 means
	// DefaultWorkersPerPeer.
	Workers int
	// Metrics, when non-nil, receives the peer's request and failure
	// counters and its latency buckets, labelled with the peer URL.
	Metrics *metrics.Registry
}

// Remote executes simulations on one worker expsd process: it POSTs
// the config to the worker's /v1/sims endpoint and decodes the
// answer. It never retries. A peer that cannot serve the request
// yields a PeerError, which a StealPool fails over to local
// execution; a simulation that ran and failed yields a SimFailure.
type Remote struct {
	peer    string
	client  *http.Client
	timeout time.Duration
	workers int

	// no-op when uninstrumented
	requests *metrics.Counter
	failures *metrics.Counter
	latency  *metrics.Histogram
}

// NewRemote builds a remote executor over one worker base URL (e.g.
// "http://sim-worker-0:8344"). Spreading work over several workers is
// a StealPool's job, so a list of any other length is refused.
func NewRemote(peers []string, o RemoteOptions) (*Remote, error) {
	if len(peers) != 1 {
		return nil, fmt.Errorf("dist: a Remote serves one worker peer, got %d (use a StealPool for several)", len(peers))
	}
	peer := cleanURL(peers[0])
	if peer == "" {
		return nil, fmt.Errorf("dist: empty worker peer URL")
	}
	client := o.Client
	if client == nil {
		client = &http.Client{}
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	workers := o.Workers
	if workers <= 0 {
		workers = DefaultWorkersPerPeer
	}
	r := &Remote{peer: peer, client: client, timeout: timeout, workers: workers}
	if reg := o.Metrics; reg != nil {
		r.requests = reg.Counter("mediasmt_peer_requests_total", "worker requests issued, by peer", metrics.L("peer", peer))
		r.failures = reg.Counter("mediasmt_peer_failures_total", "worker requests that failed (peer errors, not simulation failures or cancelled requests), by peer", metrics.L("peer", peer))
		r.latency = reg.Histogram("mediasmt_peer_request_seconds", "worker request wall time, by peer", nil, metrics.L("peer", peer))
	}
	return r, nil
}

// SimFailure reports that a worker executed the simulation and the
// simulation itself failed. It is not a peer problem: running it
// again anywhere would deterministically fail again, so a StealPool
// returns it as the config's error instead of failing over.
type SimFailure struct {
	Peer string
	Msg  string
}

func (e *SimFailure) Error() string { return e.Msg }

// PeerError reports that a peer could not serve a request: transport
// failure, timeout, fingerprint mismatch (Status 409), or any other
// non-OK answer. A StealPool fails the config over to local
// execution on a peer error.
type PeerError struct {
	Peer   string
	Status int // 0 when the request never got an HTTP answer
	Err    error
}

func (e *PeerError) Error() string {
	if e.Err != nil {
		if e.Status != 0 {
			return fmt.Sprintf("peer %s: status %d: %v", e.Peer, e.Status, e.Err)
		}
		return fmt.Sprintf("peer %s: %v", e.Peer, e.Err)
	}
	return fmt.Sprintf("peer %s: unexpected status %d", e.Peer, e.Status)
}

func (e *PeerError) Unwrap() error { return e.Err }

// retryable reports whether err might resolve on a different
// executor: simulation failures are deterministic, everything else is
// the peer's problem.
func retryable(err error) bool {
	var sf *SimFailure
	return !errors.As(err, &sf)
}

// Execute posts cfg to the worker under the per-request timeout.
func (r *Remote) Execute(ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
	if forwardingDisabled(ctx) {
		// Passing an already-forwarded simulation on could loop it
		// between daemons; refuse, so the caller's local failover
		// runs it instead.
		return nil, fmt.Errorf("dist: refusing to re-forward an already-forwarded simulation")
	}
	body, err := sim.EncodeConfig(cfg.Normalize())
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	r.requests.Inc()
	start := time.Now()
	defer func() {
		r.latency.Observe(time.Since(start).Seconds())
		// A request the caller gave up on (a cancelled job, a member
		// that left its StealPool) is not the peer's failure.
		var pe *PeerError
		if errors.As(err, &pe) && ctx.Err() == nil {
			r.failures.Inc()
		}
	}()

	rctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, r.peer+SimsPath, bytes.NewReader(body))
	if err != nil {
		return nil, &PeerError{Peer: r.peer, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(FingerprintHeader, cache.Fingerprint())
	req.Header.Set(ForwardedHeader, "1")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, &PeerError{Peer: r.peer, Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return nil, &PeerError{Peer: r.peer, Status: resp.StatusCode, Err: err}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if res, err = sim.DecodeResult(data); err != nil {
			return nil, &PeerError{Peer: r.peer, Status: resp.StatusCode, Err: err}
		}
		return res, nil
	case http.StatusUnprocessableEntity:
		return nil, &SimFailure{Peer: r.peer, Msg: errorBody(data)}
	default:
		return nil, &PeerError{Peer: r.peer, Status: resp.StatusCode, Err: errors.New(errorBody(data))}
	}
}

// errorBody extracts the message of the v1 error envelope,
// {"error":{"code":...,"message":...}}. Any other answer falls back to
// the (truncated) raw body, so its text still reaches the caller.
func errorBody(data []byte) string {
	var env struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && env.Error.Message != "" {
		return env.Error.Message
	}
	const max = 256
	s := strings.TrimSpace(string(data))
	if len(s) > max {
		s = s[:max] + "..."
	}
	if s == "" {
		s = "empty response body"
	}
	return s
}

// Workers reports the advertised request concurrency.
func (r *Remote) Workers() int { return r.workers }
