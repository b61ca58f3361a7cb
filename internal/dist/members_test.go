package dist

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mediasmt/internal/metrics"
)

// TestMembersAddRemove: registration is idempotent (heartbeats are
// re-Adds), URLs normalize like Remote's, snapshots are sorted, and
// the gauge/transition metrics track every real change.
func TestMembersAddRemove(t *testing.T) {
	reg := metrics.New()
	m := NewMembers().Instrument(reg)
	if !m.Add("http://b:1/") {
		t.Error("first Add must report a change")
	}
	if m.Add("  http://b:1  ") {
		t.Error("re-registering (heartbeat) must not report a change")
	}
	if m.Add("") {
		t.Error("blank URL must be rejected")
	}
	m.Add("http://a:1")
	got := m.Snapshot()
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:1" {
		t.Errorf("snapshot = %v, want sorted [http://a:1 http://b:1]", got)
	}
	if !m.Remove("http://b:1") || m.Remove("http://b:1") {
		t.Error("Remove must report exactly one change")
	}
	if len(m.Snapshot()) != 1 {
		t.Errorf("%d members, want 1", len(m.Snapshot()))
	}
	if v := reg.Gauge("mediasmt_members", "").Value(); v != 1 {
		t.Errorf("members gauge = %d, want 1", v)
	}
	if v := reg.Counter("mediasmt_peer_health_transitions_total", "", metrics.L("to", "live")).Value(); v != 2 {
		t.Errorf("to=live transitions = %d, want 2", v)
	}
	if v := reg.Counter("mediasmt_peer_health_transitions_total", "", metrics.L("to", "dead")).Value(); v != 1 {
		t.Errorf("to=dead transitions = %d, want 1", v)
	}
}

// TestHealthCheckerEvictsDeadPeer: a worker that stops answering
// /v1/healthz is removed after two consecutive failed sweeps,
// while a healthy worker stays — and a single lost probe does not
// evict.
func TestHealthCheckerEvictsDeadPeer(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != HealthPath {
			http.Error(w, "bad route", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(healthy.Close)
	// Fails exactly once, then recovers: must never be evicted,
	// because success resets the streak.
	var flaky atomic.Int64
	flakyTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flaky.Add(1) == 1 {
			http.Error(w, "hiccup", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(flakyTS.Close)

	m := NewMembers()
	m.Add(healthy.URL)
	m.Add(flakyTS.URL)
	m.Add("http://127.0.0.1:1") // nothing listens here

	h := NewHealthChecker(m, HealthOptions{Interval: 20 * time.Millisecond})
	h.Start()
	defer h.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for len(m.Snapshot()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead peer not evicted; members = %v", m.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Give the checker a few more sweeps: the healthy and flaky
	// members must survive them.
	time.Sleep(100 * time.Millisecond)
	got := m.Snapshot()
	if len(got) != 2 {
		t.Fatalf("members after sweeps = %v, want the two live ones", got)
	}
	for _, u := range got {
		if u != healthy.URL && u != flakyTS.URL {
			t.Errorf("unexpected member %q survived", u)
		}
	}
	if flaky.Load() < 2 {
		t.Error("flaky peer was not re-probed after its failure")
	}
}
