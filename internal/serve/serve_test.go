package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/exp"
)

// newTestServer spins up a service over a fresh cache directory and a
// runner with the given pool size.
func newTestServer(t *testing.T, workers, maxJobs int) *httptest.Server {
	t.Helper()
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Runner: exp.NewRunner(workers, c), MaxJobs: maxJobs})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts
}

// submit POSTs a job body and decodes the 202 response.
func submit(t *testing.T, ts *httptest.Server, body string) JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202; body: %s", resp.StatusCode, raw)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("submit: Location %q, want /v1/jobs/<id>", loc)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("submit: decode %q: %v", raw, err)
	}
	return v
}

// waitJob polls the status endpoint until the job settles.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == JobOK || v.Status == JobFailed {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle in time", id)
	return JobView{}
}

// fetchResults downloads a finished job's result set in the given
// format ("" = server default).
func fetchResults(t *testing.T, ts *httptest.Server, id, format string) (int, []byte) {
	t.Helper()
	url := ts.URL + "/v1/jobs/" + id + "/results"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// normalizeTiming zeroes the wall-clock fields that legitimately
// differ between two runs of the same configs, leaving everything else
// byte-comparable.
func normalizeTiming(t *testing.T, raw []byte) []byte {
	t.Helper()
	var rs exp.ResultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatalf("decode result set: %v", err)
	}
	rs.WallSeconds = 0
	for i := range rs.Experiments {
		rs.Experiments[i].Seconds = 0
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitPollResults is the end-to-end path: submit → poll → fetch.
// The served CSV must be byte-identical to what exps -csv prints for
// the same configs, and the served JSON byte-identical modulo the
// wall-clock fields — both sides run the same engine entry point and
// the same emitters.
func TestSubmitPollResults(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	v := submit(t, ts, `{"experiments":["table1","fig4"],"scale":0.02,"seed":7,"workers":2}`)
	if v.Status != JobQueued && v.Status != JobRunning {
		t.Fatalf("fresh job status %q", v.Status)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != JobOK {
		t.Fatalf("job settled %q (error %q), want ok", done.Status, done.Error)
	}
	if done.Simulations == 0 || done.CacheWrites != done.Simulations {
		t.Errorf("job ran %d simulations with %d cache writes; want >0 and equal", done.Simulations, done.CacheWrites)
	}

	// Reference: the CLI path over its own cold cache, same options.
	refCache, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := exp.NewSuite(exp.Options{Scale: 0.02, Seed: 7, Workers: 2, Cache: refCache})
	refSet, err := ref.RunExperimentsContext(context.Background(), []string{"table1", "fig4"}, exp.Progress{})
	if err != nil {
		t.Fatal(err)
	}

	code, gotCSV := fetchResults(t, ts, v.ID, "csv")
	if code != http.StatusOK {
		t.Fatalf("results?format=csv: status %d: %s", code, gotCSV)
	}
	var wantCSV bytes.Buffer
	if err := refSet.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Errorf("served CSV differs from exps -csv:\n--- served ---\n%s\n--- exps ---\n%s", gotCSV, wantCSV.Bytes())
	}

	code, gotJSON := fetchResults(t, ts, v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("results (json): status %d", code)
	}
	var wantJSON bytes.Buffer
	if err := refSet.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeTiming(t, gotJSON), normalizeTiming(t, wantJSON.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("served JSON differs from exps -json (timing normalized):\n--- served ---\n%s\n--- exps ---\n%s", got, want)
	}
}

// TestSecondSubmissionServesFromCache is the serving form of the
// repo's headline cache property: an identical second POST completes
// with zero simulations executed, fed entirely from the disk cache the
// first job populated, and serves byte-identical CSV.
func TestSecondSubmissionServesFromCache(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	body := `{"experiments":["fig4"],"scale":0.02,"seed":7}`

	first := waitJob(t, ts, submit(t, ts, body).ID)
	if first.Status != JobOK || first.Simulations == 0 {
		t.Fatalf("cold job: status %q, %d simulations; want ok and >0", first.Status, first.Simulations)
	}
	_, coldCSV := fetchResults(t, ts, first.ID, "csv")

	second := waitJob(t, ts, submit(t, ts, body).ID)
	if second.Status != JobOK {
		t.Fatalf("warm job settled %q (error %q)", second.Status, second.Error)
	}
	if second.Simulations != 0 {
		t.Errorf("warm job executed %d simulations, want 0 (disk cache)", second.Simulations)
	}
	if second.CacheHits == 0 || second.CacheMisses != 0 {
		t.Errorf("warm job cache stats %d hits / %d misses, want all hits", second.CacheHits, second.CacheMisses)
	}
	_, warmCSV := fetchResults(t, ts, second.ID, "csv")
	if !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldCSV, warmCSV)
	}
}

// TestPartialFailureReportsOffendingKeys: a job whose simulations trip
// the cycle cap settles as failed, names the offending config keys in
// its status view, and still serves the partial result set with the
// unaffected experiments rendered.
func TestPartialFailureReportsOffendingKeys(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	v := submit(t, ts, `{"experiments":["table1","fig4"],"scale":0.05,"seed":7,"max_cycles":1000}`)
	done := waitJob(t, ts, v.ID)
	if done.Status != JobFailed {
		t.Fatalf("capped job settled %q, want failed", done.Status)
	}
	if done.Error == "" || done.Failed == 0 || done.FailedSims == 0 {
		t.Errorf("failure bookkeeping empty: error %q, failed %d, failed_sims %d", done.Error, done.Failed, done.FailedSims)
	}
	if len(done.FailedExperiments) != 1 || done.FailedExperiments[0].ID != "fig4" {
		t.Fatalf("failed experiments %+v, want exactly fig4", done.FailedExperiments)
	}
	ces := done.FailedExperiments[0].ConfigErrors
	if len(ces) == 0 {
		t.Fatal("no offending config keys reported")
	}
	for _, ce := range ces {
		if !strings.Contains(ce.Key, "max=1000") || ce.Err == "" {
			t.Errorf("config error %+v does not carry the capped key and cause", ce)
		}
	}

	code, raw := fetchResults(t, ts, v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("partial results: status %d", code)
	}
	var rs exp.ResultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatal(err)
	}
	byID := map[string]exp.ExperimentResult{}
	for _, e := range rs.Experiments {
		byID[e.ID] = e
	}
	if e := byID["table1"]; e.Status != exp.StatusOK || e.Output == "" {
		t.Errorf("unaffected table1 did not render: %+v", e)
	}
	if e := byID["fig4"]; e.Status != exp.StatusFailed || len(e.ConfigErrors) == 0 {
		t.Errorf("fig4 not marked failed with config errors: %+v", e)
	}
}

// TestEventsStreamDeliversProgress: the SSE stream replays the full
// history, so regardless of how the subscription races the job it must
// deliver at least one sim progress event and end with done.
func TestEventsStreamDeliversProgress(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	v := submit(t, ts, `{"experiments":["fig4"],"scale":0.02,"seed":7}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var sims, experiments int
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "event: sim":
			sims++
		case line == "event: experiment":
			experiments++
		case line == "event: done":
			sawDone = true
		}
		if sawDone {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone || sims == 0 || experiments == 0 {
		t.Errorf("stream delivered %d sim and %d experiment events, done=%v; want >0, >0, true", sims, experiments, sawDone)
	}

	// A subscriber joining after settlement replays the same history.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(replay), "event: sim") || !strings.Contains(string(replay), "event: done") {
		t.Errorf("post-settlement replay missing events:\n%s", replay)
	}
}

// TestConcurrentSubmitters hammers the service from several clients at
// once; with -race this is the data-race canary for the shared runner,
// cache and job store.
func TestConcurrentSubmitters(t *testing.T) {
	ts := newTestServer(t, 4, 16)
	bodies := []string{
		`{"experiments":["table1"]}`,
		`{"experiments":["table2"]}`,
		`{"experiments":["table3"]}`,
		`{"experiments":["fig4"],"scale":0.02,"seed":7}`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(bodies))
	for _, body := range bodies {
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			var v JobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			deadline := time.Now().Add(2 * time.Minute)
			for time.Now().Before(deadline) {
				r2, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
				if err != nil {
					errs <- err
					return
				}
				var cur JobView
				err = json.NewDecoder(r2.Body).Decode(&cur)
				r2.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if cur.Status == JobOK {
					return
				}
				if cur.Status == JobFailed {
					errs <- fmt.Errorf("job %s failed: %s", v.ID, cur.Error)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			errs <- fmt.Errorf("job %s did not settle", v.ID)
		}(body)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestResultsBeforeCompletion: fetching results from an unfinished job
// is a 409, not a 500 and not an empty 200.
func TestResultsBeforeCompletion(t *testing.T) {
	ts := newTestServer(t, 1, 8)
	v := submit(t, ts, `{"experiments":["fig5"],"scale":0.05,"seed":7}`)
	code, raw := fetchResults(t, ts, v.ID, "csv")
	// The job may legitimately have settled already on a fast machine;
	// only the still-running answer shape is under test here.
	if code != http.StatusOK && code != http.StatusConflict {
		t.Fatalf("results mid-run: status %d (%s), want 409 while running or 200 once done", code, raw)
	}
	if code == http.StatusConflict && !strings.Contains(string(raw), v.ID) {
		t.Errorf("409 body does not name the job: %s", raw)
	}
	waitJob(t, ts, v.ID)
}

// TestJobStoreEviction: the store retains MaxJobs jobs, evicting the
// oldest settled ones; evicted ids answer 404.
func TestJobStoreEviction(t *testing.T) {
	ts := newTestServer(t, 2, 2)
	a := waitJob(t, ts, submit(t, ts, `{"experiments":["table1"]}`).ID)
	b := waitJob(t, ts, submit(t, ts, `{"experiments":["table2"]}`).ID)
	c := waitJob(t, ts, submit(t, ts, `{"experiments":["table3"]}`).ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job %s: status %d, want 404", a.ID, resp.StatusCode)
	}
	for _, id := range []string{b.ID, c.ID} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("retained job %s: status %d, want 200", id, resp.StatusCode)
		}
	}
}

// TestStatusEndpoints: /v1/healthz, the legacy /healthz alias and
// /v1/fingerprint all serve the same StatusView payload.
func TestStatusEndpoints(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	for _, path := range []string{"/v1/healthz", "/healthz", "/v1/fingerprint"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var sv StatusView
		err = json.NewDecoder(resp.Body).Decode(&sv)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || sv.Status != "ok" {
			t.Errorf("%s: %d status %q, want 200 ok", path, resp.StatusCode, sv.Status)
		}
		if sv.Fingerprint != cache.Fingerprint() {
			t.Errorf("%s: fingerprint %q, want %q", path, sv.Fingerprint, cache.Fingerprint())
		}
		if sv.Workers != 2 || !sv.Cache || len(sv.Experiments) != len(exp.IDs()) {
			t.Errorf("%s: metadata wrong: %+v", path, sv)
		}
		if sv.CacheStats == nil || sv.CacheDir == "" {
			t.Errorf("%s: cached server missing cache_dir/cache_stats: %+v", path, sv)
		}
	}
}

// TestUnknownJobIs404 covers the status, results and events routes.
func TestUnknownJobIs404(t *testing.T) {
	ts := newTestServer(t, 1, 8)
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/results", "/v1/jobs/job-999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
