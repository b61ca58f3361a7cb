package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mediasmt/internal/cache"
	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// stuffJob injects a job directly into the store, bypassing the
// submit handler — the only way a test can hold a job in a chosen
// lifecycle state deterministically.
func stuffJob(s *Server, j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
}

// TestErrorEnvelopeContract drives one request through every 4xx/5xx
// path the handlers have and asserts each answers the v1 envelope
// {"error":{"code":...,"message":...}} with the documented code.
func TestErrorEnvelopeContract(t *testing.T) {
	s := New(Config{Runner: exp.NewRunner(1, nil), MaxJobs: 8})
	defer s.Close()
	// job-queued never starts: results against it are deterministically
	// not ready. job-nors settled without a result set: the 500 path.
	stuffJob(s, newJob("job-queued", []string{"table1"}, exp.Options{}, 0))
	nors := newJob("job-nors", []string{"table1"}, exp.Options{}, 0)
	nors.finish(nil, errors.New("engine refused"))
	stuffJob(s, nors)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	validCfg := func(maxCycles int64) []byte {
		data, err := sim.EncodeConfig(sim.Config{
			ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR,
			Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7, MaxCycles: maxCycles,
		}.Normalize())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		fp         string // X-Mediasmt-Fingerprint; "" omits
		wantStatus int
		wantCode   string
	}{
		{"submit malformed body", "POST", "/v1/jobs", `not json`, "", 400, ErrBadRequest},
		{"submit out-of-range scale", "POST", "/v1/jobs", `{"scale":0}`, "", 400, ErrBadRequest},
		{"list unknown status filter", "GET", "/v1/jobs?status=bogus", "", "", 400, ErrBadRequest},
		{"unknown job status", "GET", "/v1/jobs/job-999", "", "", 404, ErrNotFound},
		{"unknown job results", "GET", "/v1/jobs/job-999/results", "", "", 404, ErrNotFound},
		{"unknown job events", "GET", "/v1/jobs/job-999/events", "", "", 404, ErrNotFound},
		{"results before settle", "GET", "/v1/jobs/job-queued/results", "", "", 409, ErrNotReady},
		{"results without result set", "GET", "/v1/jobs/job-nors/results", "", "", 500, ErrInternal},
		{"metrics unknown format", "GET", "/v1/metrics?format=xml", "", "", 400, ErrBadRequest},
		{"sim malformed body", "POST", dist.SimsPath, `{not json`, cache.Fingerprint(), 400, ErrBadRequest},
		{"sim out-of-range config", "POST", dist.SimsPath, string(mustThreads3(t)), cache.Fingerprint(), 400, ErrBadRequest},
		{"sim fingerprint skew", "POST", dist.SimsPath, string(validCfg(0)), "cachefmt-v0+other-sim", 409, ErrFingerprintMismatch},
		{"sim hits cycle cap", "POST", dist.SimsPath, string(validCfg(1000)), cache.Fingerprint(), 422, ErrSimFailed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.fp != "" {
				req.Header.Set(dist.FingerprintHeader, c.fp)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, c.wantStatus, raw)
			}
			var e ErrorEnvelope
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("body is not an error envelope: %v\n%s", err, raw)
			}
			if e.Error.Code != c.wantCode {
				t.Errorf("code %q, want %q (message %q)", e.Error.Code, c.wantCode, e.Error.Message)
			}
			if e.Error.Message == "" {
				t.Error("envelope message is empty")
			}
			if c.wantCode == ErrFingerprintMismatch && e.Fingerprint != cache.Fingerprint() {
				t.Errorf("409 fingerprint field %q, want the worker's %q", e.Fingerprint, cache.Fingerprint())
			}
		})
	}
}

// mustThreads3 encodes an out-of-range config (3 is not a supported
// thread count, so the cliflags bounds reject it).
func mustThreads3(t *testing.T) []byte {
	t.Helper()
	data, err := sim.EncodeConfig(sim.Config{
		ISA: core.ISAMMX, Threads: 3, Policy: core.PolicyRR,
		Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreFullEnvelope: a store whose every retained job is still in
// flight refuses the submission with 503 store_full.
func TestStoreFullEnvelope(t *testing.T) {
	s := New(Config{Runner: exp.NewRunner(1, nil), MaxJobs: 1})
	defer s.Close()
	stuffJob(s, newJob("job-hog", []string{"table1"}, exp.Options{}, 0)) // never settles
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiments":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != ErrStoreFull {
		t.Errorf("status %d code %q, want 503 %q", resp.StatusCode, e.Error.Code, ErrStoreFull)
	}
}
