package dist

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/sim"
)

// workerStub is an httptest worker speaking the /v1/sims wire format:
// it checks the fingerprint header, decodes the config and answers
// with a stub result (or whatever behavior the test injects; the
// request is there so a behavior can hold its answer until the
// coordinator hangs up).
func workerStub(t *testing.T, behavior func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != SimsPath || r.Method != http.MethodPost {
			t.Errorf("worker got %s %s, want POST %s", r.Method, r.URL.Path, SimsPath)
			http.Error(w, "bad route", http.StatusNotFound)
			return
		}
		if got := r.Header.Get(FingerprintHeader); got != cache.Fingerprint() {
			t.Errorf("request fingerprint %q, want %q", got, cache.Fingerprint())
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg, err := sim.DecodeConfig(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if behavior != nil && behavior(w, r, cfg) {
			return
		}
		data, err := sim.EncodeResult(stubResult(cfg))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRemoteRoundTrip: a healthy peer returns a decodable result, and
// the coordinator-side tally stays 0 — the execution belongs to the
// worker.
func TestRemoteRoundTrip(t *testing.T) {
	ts := workerStub(t, nil)
	r, err := NewRemote([]string{ts.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	var tally atomic.Int64
	res, err := r.Execute(WithTally(context.Background(), &tally), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 42 || res.Cfg.Key() != cfg.Key() {
		t.Errorf("round-tripped result wrong: %+v", res)
	}
	if tally.Load() != 0 {
		t.Error("remote executor claimed local simulations")
	}
}

// TestRemoteTimeoutFailsOver: a peer hanging past the per-request
// timeout yields a retryable PeerError naming the peer — the error a
// StealPool fails over to local execution on.
func TestRemoteTimeoutFailsOver(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		<-release
		return true
	})
	r, err := NewRemote([]string{hang.URL}, RemoteOptions{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Execute(context.Background(), testConfig(1))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Peer != hang.URL {
		t.Fatalf("err = %v, want a PeerError from %s", err, hang.URL)
	}
	if !retryable(err) {
		t.Error("a timed-out peer must stay retryable")
	}
}

// TestRemoteFingerprint409: a worker on a different simulator version
// refuses this coordinator's fingerprint with 409; the coordinator
// surfaces a PeerError carrying the status and the worker's message,
// never a silently mixed result.
func TestRemoteFingerprint409(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"fingerprint_mismatch","message":"fingerprint mismatch"}}`, http.StatusConflict)
	}))
	t.Cleanup(ts.Close)
	r, err := NewRemote([]string{ts.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Execute(context.Background(), testConfig(1))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Status != http.StatusConflict {
		t.Fatalf("err = %v, want PeerError with status 409", err)
	}
	if !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("error does not carry the peer's message: %v", err)
	}
}

// TestRemoteSimFailureDoesNotRetry: a 422 means the worker ran the
// simulation and it failed — deterministic, so the error keeps the
// simulation's message and is not retryable.
func TestRemoteSimFailureDoesNotRetry(t *testing.T) {
	failing := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		http.Error(w, `{"error":{"code":"sim_failed","message":"sim: hit MaxCycles=1000 with 3/8 programs complete"}}`, http.StatusUnprocessableEntity)
		return true
	})
	r, err := NewRemote([]string{failing.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Execute(context.Background(), testConfig(1))
	var sf *SimFailure
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want SimFailure", err)
	}
	if !strings.Contains(err.Error(), "MaxCycles") {
		t.Errorf("simulation error text lost: %v", err)
	}
	if retryable(err) {
		t.Error("SimFailure must not be retryable")
	}
}

// TestNoForwardTerminatesAtThisProcess: under a NoForward context —
// what the worker endpoint applies to already-forwarded requests — a
// Remote must refuse rather than bounce the simulation onward. This is
// the loop guard for daemons registered as each other's workers
// (TestStealPoolNoForward covers the pool's local execution).
func TestNoForwardTerminatesAtThisProcess(t *testing.T) {
	peer := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		t.Error("forwarded simulation reached a peer again")
		return false
	})
	r, err := NewRemote([]string{peer.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(NoForward(context.Background()), testConfig(1)); err == nil || !strings.Contains(err.Error(), "re-forward") {
		t.Errorf("remote under NoForward returned %v, want a refusal", err)
	}
}

// TestNewRemoteValidation: constructor edges. A Remote serves exactly
// one worker; several are a StealPool's job.
func TestNewRemoteValidation(t *testing.T) {
	if _, err := NewRemote(nil, RemoteOptions{}); err == nil {
		t.Error("no peers must error")
	}
	if _, err := NewRemote([]string{"  "}, RemoteOptions{}); err == nil {
		t.Error("blank peer must error")
	}
	if _, err := NewRemote([]string{"http://h:1", "http://h:2"}, RemoteOptions{}); err == nil {
		t.Error("two peers must error")
	}
	r, err := NewRemote([]string{"http://h:1/"}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.peer != "http://h:1" {
		t.Errorf("trailing slash not stripped: %q", r.peer)
	}
	if r.Workers() != DefaultWorkersPerPeer {
		t.Errorf("default workers %d, want %d", r.Workers(), DefaultWorkersPerPeer)
	}
}
