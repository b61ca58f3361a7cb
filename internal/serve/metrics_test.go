package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
	"mediasmt/internal/metrics"
	"mediasmt/internal/sim"
)

// newInstrumentedServer builds a service whose pool, runner and server
// share one registry — the wiring cmd/expsd uses.
func newInstrumentedServer(t *testing.T, workers, maxJobs int) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	runner := exp.NewRunnerExecutor(dist.NewLocal(workers).Instrument(reg), c).Instrument(reg)
	s := New(Config{Runner: runner, MaxJobs: maxJobs, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts, reg
}

// TestMetricsEndpointReconcilesWithJob is the serving half of the
// acceptance criterion: after a job settles, the scraped
// mediasmt_sims_executed_total must equal the simulation count the
// job's own status view reports.
func TestMetricsEndpointReconcilesWithJob(t *testing.T) {
	ts, _ := newInstrumentedServer(t, 2, 8)
	done := waitJob(t, ts, submit(t, ts, `{"experiments":["fig4"],"scale":0.02,"seed":7}`).ID)
	if done.Status != JobOK || done.Simulations == 0 {
		t.Fatalf("job settled %q with %d simulations", done.Status, done.Simulations)
	}

	// JSON form: decode the stable snapshot and pull the counter.
	resp, err := http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type %q", ct)
	}
	var sims, submitted int64 = -1, -1
	for _, c := range snap.Counters {
		switch c.Name {
		case "mediasmt_sims_executed_total":
			sims = c.Value
		case "mediasmt_jobs_submitted_total":
			submitted = c.Value
		}
	}
	if sims != done.Simulations {
		t.Errorf("mediasmt_sims_executed_total = %d, job reported %d simulations", sims, done.Simulations)
	}
	if submitted != 1 {
		t.Errorf("mediasmt_jobs_submitted_total = %d, want 1", submitted)
	}

	// Prometheus text form: same counter, exposition format.
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE mediasmt_sims_executed_total counter",
		// The counter line itself, with the job's exact count.
		"mediasmt_sims_executed_total " + strconv.FormatInt(done.Simulations, 10),
		"# TYPE mediasmt_sse_subscribers gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsEndpointUninstrumented: a server built without a registry
// still serves the endpoint — empty snapshot, not a 404 — so scrapers
// need not know how the daemon was launched.
func TestMetricsEndpointUninstrumented(t *testing.T) {
	s := New(Config{Runner: exp.NewRunner(1, nil)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) != 0 {
		t.Errorf("uninstrumented prometheus scrape: %d %q, want empty 200", resp.StatusCode, raw)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("uninstrumented json snapshot not empty: %+v", snap)
	}
}

// TestJobsStatusFilter: GET /v1/jobs?status= narrows the listing while
// keeping the documented newest-first order.
func TestJobsStatusFilter(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	a := waitJob(t, ts, submit(t, ts, `{"experiments":["table1"]}`).ID)
	b := waitJob(t, ts, submit(t, ts, `{"experiments":["table2"]}`).ID)

	list := func(query string) []JobView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("list%s: %d %s", query, resp.StatusCode, raw)
		}
		var body struct {
			Jobs []JobView `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Jobs
	}

	all := list("")
	if len(all) != 2 || all[0].ID != b.ID || all[1].ID != a.ID {
		t.Fatalf("unfiltered list %+v, want [%s %s] newest first", all, b.ID, a.ID)
	}
	ok := list("?status=ok")
	if len(ok) != 2 || ok[0].ID != b.ID {
		t.Errorf("status=ok list %+v, want both jobs newest first", ok)
	}
	if failed := list("?status=failed"); len(failed) != 0 {
		t.Errorf("status=failed list %+v, want empty", failed)
	}
	if running := list("?status=running"); len(running) != 0 {
		t.Errorf("status=running list %+v, want empty", running)
	}
}

// TestWorkerEndpointCountsOnce: /v1/sims counts a simulation where the
// engine resolves it, so a cold request then a warm repeat leave one
// execution in both the engine's and the pool's counter, and the
// status view's cache_stats equal the mediasmt_cache_* counters.
func TestWorkerEndpointCountsOnce(t *testing.T) {
	ts, reg := newInstrumentedServer(t, 2, 8)
	cfg := sim.Config{ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR, Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7}
	for _, run := range []string{"cold", "warm"} {
		if code, raw := postSim(t, ts, encodedConfig(t, cfg), cache.Fingerprint()); code != http.StatusOK {
			t.Fatalf("%s request: status %d: %s", run, code, raw)
		}
	}
	counter := func(name string) int64 { return reg.Counter(name, "").Value() }
	if executed, pool := counter("mediasmt_sims_executed_total"), counter("mediasmt_pool_sims_total"); executed != 1 || pool != 1 {
		t.Errorf("sims_executed_total = %d, pool_sims_total = %d, want 1 and 1", executed, pool)
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var v StatusView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := CacheStatsView{
		Hits:   counter("mediasmt_cache_hits_total"),
		Misses: counter("mediasmt_cache_misses_total"),
		Writes: counter("mediasmt_cache_writes_total"),
	}
	if v.CacheStats == nil || *v.CacheStats != want || want != (CacheStatsView{Hits: 1, Misses: 1, Writes: 1}) {
		t.Errorf("cache_stats = %+v, counters = %+v, want both 1 hit / 1 miss / 1 write", v.CacheStats, want)
	}
}
