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
// failure (422) does not, and the latency histogram observes every
// request.
func TestRemoteMetricsPerPeer(t *testing.T) {
	bad := workerStub(t, func(w http.ResponseWriter, cfg sim.Config) bool {
		http.Error(w, `{"error":{"code":"internal","message":"worker exploded"}}`, http.StatusInternalServerError)
		return true
	})
	failing := workerStub(t, func(w http.ResponseWriter, cfg sim.Config) bool {
		http.Error(w, `{"error":{"code":"sim_failed","message":"hit MaxCycles"}}`, http.StatusUnprocessableEntity)
		return true
	})
	good := workerStub(t, nil)
	reg := metrics.New()
	for _, c := range []struct {
		url      string
		calls    int
		failures int64
	}{{good.URL, 3, 0}, {bad.URL, 2, 2}, {failing.URL, 1, 0}} {
		r, err := NewRemote([]string{c.url}, RemoteOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.calls; i++ {
			r.Execute(context.Background(), testConfig(1<<i)) //nolint:errcheck // the counters are the assertion
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

// TestErrorBodyEnvelopeAndLegacy: the coordinator parses both the v1
// error envelope and the legacy string form, so mixed-version fleets
// keep readable errors.
func TestErrorBodyEnvelopeAndLegacy(t *testing.T) {
	cases := []struct {
		body string
		want string
	}{
		{`{"error":{"code":"bad_request","message":"threads out of range"}}`, "threads out of range"},
		{`{"error":"legacy message"}`, "legacy message"},
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
