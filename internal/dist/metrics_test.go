package dist

import (
	"context"
	"net/http"
	"testing"

	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

func peerCounter(reg *metrics.Registry, name, peer string) int64 {
	return reg.Counter(name, "", metrics.L("peer", peer)).Value()
}

// TestRemoteMetricsPerPeer: every request counts against its peer's
// series, a peer failure counts once as a failure, a simulation
// failure (422) and a request its caller cancelled do not, and the
// latency histogram observes every request.
func TestRemoteMetricsPerPeer(t *testing.T) {
	bad := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		http.Error(w, `{"error":{"code":"internal","message":"worker exploded"}}`, http.StatusInternalServerError)
		return true
	})
	failing := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		http.Error(w, `{"error":{"code":"sim_failed","message":"hit MaxCycles"}}`, http.StatusUnprocessableEntity)
		return true
	})
	good := workerStub(t, nil)
	cancelled, cancel := context.WithCancel(context.Background())
	defer cancel()
	hang := workerStub(t, func(w http.ResponseWriter, req *http.Request, cfg sim.Config) bool {
		cancel() // the caller gives up while the request is in flight
		<-req.Context().Done()
		return true
	})
	reg := metrics.New()
	for _, c := range []struct {
		url      string
		ctx      context.Context
		calls    int
		failures int64
	}{
		{good.URL, context.Background(), 3, 0},
		{bad.URL, context.Background(), 2, 2},
		{failing.URL, context.Background(), 1, 0},
		{hang.URL, cancelled, 1, 0},
	} {
		r, err := NewRemote([]string{c.url}, RemoteOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.calls; i++ {
			r.Execute(c.ctx, testConfig(1<<i)) //nolint:errcheck // the counters are the assertion
		}
		if got := peerCounter(reg, "mediasmt_peer_requests_total", c.url); got != int64(c.calls) {
			t.Errorf("%s: requests = %d, want %d", c.url, got, c.calls)
		}
		if got := peerCounter(reg, "mediasmt_peer_failures_total", c.url); got != c.failures {
			t.Errorf("%s: failures = %d, want %d", c.url, got, c.failures)
		}
		if got := reg.Histogram("mediasmt_peer_request_seconds", "", nil, metrics.L("peer", c.url)).Count(); got != int64(c.calls) {
			t.Errorf("%s: latency observations = %d, want %d", c.url, got, c.calls)
		}
	}
}

// TestErrorBodyEnvelopeAndLegacy: the coordinator reads the message of
// the v1 error envelope; anything else, a pre-v1 daemon's
// {"error":"..."} included, falls back to the raw body, so its text
// still reaches the error.
func TestErrorBodyEnvelopeAndLegacy(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{`{"error":{"code":"bad_request","message":"threads out of range"}}`, "threads out of range"},
		{`{"error":"legacy message"}`, `{"error":"legacy message"}`},
		{`plain text`, "plain text"},
		{``, "empty response body"},
		{`{"error":{}}`, `{"error":{}}`}, // envelope without message: raw fallback
	}
	for _, c := range cases {
		if got := errorBody([]byte(c.body)); got != c.want {
			t.Errorf("errorBody(%q) = %q, want %q", c.body, got, c.want)
		}
	}
}
