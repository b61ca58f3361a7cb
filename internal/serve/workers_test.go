package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
)

// workersServer builds a server with (or without) a Members registry.
func workersServer(t *testing.T, m *dist.Members) *httptest.Server {
	t.Helper()
	s := New(Config{Runner: exp.NewRunner(1, nil), Members: m})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts
}

func workersCall(t *testing.T, ts *httptest.Server, method, body string) (int, WorkersView, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+"/v1/workers", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v WorkersView
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, v, raw
}

// TestWorkersAPI drives the registration lifecycle: register,
// heartbeat (idempotent), list, deregister — and the dynamic set
// shows up in the status view's peers.
func TestWorkersAPI(t *testing.T) {
	m := dist.NewMembers()
	ts := workersServer(t, m)

	code, v, _ := workersCall(t, ts, http.MethodPost, `{"url":"http://w1:8344/"}`)
	if code != http.StatusOK || !v.Changed || len(v.Workers) != 1 || v.Workers[0] != "http://w1:8344" {
		t.Fatalf("register: code %d view %+v, want 200 changed [http://w1:8344]", code, v)
	}
	code, v, _ = workersCall(t, ts, http.MethodPost, `{"url":"http://w1:8344"}`)
	if code != http.StatusOK || v.Changed {
		t.Fatalf("heartbeat: code %d changed %v, want 200 unchanged", code, v.Changed)
	}
	workersCall(t, ts, http.MethodPost, `{"url":"http://w2:8344"}`)

	code, v, _ = workersCall(t, ts, http.MethodGet, "")
	if code != http.StatusOK || len(v.Workers) != 2 {
		t.Fatalf("list: code %d workers %v, want 2 sorted", code, v.Workers)
	}
	if v.Workers[0] != "http://w1:8344" || v.Workers[1] != "http://w2:8344" {
		t.Fatalf("list not sorted: %v", v.Workers)
	}

	// The status view exposes the same live set.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var sv StatusView
	err = json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Peers) != 2 {
		t.Fatalf("status peers = %v, want both workers", sv.Peers)
	}

	code, v, _ = workersCall(t, ts, http.MethodDelete, `{"url":"http://w1:8344"}`)
	if code != http.StatusOK || !v.Changed || len(v.Workers) != 1 {
		t.Fatalf("deregister: code %d view %+v, want 200 changed [http://w2:8344]", code, v)
	}
	code, v, _ = workersCall(t, ts, http.MethodDelete, `{"url":"http://gone:1"}`)
	if code != http.StatusOK || v.Changed {
		t.Fatalf("deregister unknown: code %d changed %v, want 200 unchanged", code, v.Changed)
	}
	if len(m.Snapshot()) != 1 {
		t.Fatalf("registry has %d members, want 1", len(m.Snapshot()))
	}
}

// TestWorkersAPIValidation: malformed bodies and URLs are 400s in the
// error envelope; a daemon without a registry 404s the whole route.
func TestWorkersAPIValidation(t *testing.T) {
	ts := workersServer(t, dist.NewMembers())
	for _, body := range []string{``, `{"url":""}`, `{"url":"ftp://x"}`, `{"url":"http://x?q=1"}`, `{"nope":1}`} {
		code, _, raw := workersCall(t, ts, http.MethodPost, body)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != ErrBadRequest {
			t.Errorf("body %q: response %s is not a bad_request envelope", body, raw)
		}
	}

	bare := workersServer(t, nil)
	for _, method := range []string{http.MethodPost, http.MethodGet, http.MethodDelete} {
		code, _, raw := workersCall(t, bare, method, `{"url":"http://w:1"}`)
		if code != http.StatusNotFound {
			t.Errorf("%s without Members: status %d, want 404", method, code)
			continue
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != ErrNotFound {
			t.Errorf("%s without Members: response %s is not a not_found envelope", method, raw)
		}
	}
}
