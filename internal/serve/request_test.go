package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mediasmt/internal/exp"
)

// TestDecodeJobRequestBounds is the table the exps flags are validated
// against, applied to the HTTP decoder: every value exps would refuse
// with exit 2 must come back as a *requestError (a 400), never pass
// through to be silently coerced and never escalate to a 500.
func TestDecodeJobRequestBounds(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		wantErr string // empty = accepted
	}{
		{"empty object means all experiments", `{}`, ""},
		{"explicit all", `{"experiments":["all"]}`, ""},
		{"explicit ids", `{"experiments":["table1","fig4"]}`, ""},
		{"full valid", `{"experiments":["fig4"],"scale":0.05,"seed":7,"workers":2,"max_cycles":1000}`, ""},
		{"workers zero means full pool", `{"workers":0}`, ""},
		{"max_cycles zero means simulator default", `{"max_cycles":0}`, ""},

		{"zero scale", `{"scale":0}`, "scale"},
		{"negative scale", `{"scale":-1}`, "scale"},
		{"scale past the paper's full run", `{"scale":1000.5}`, "scale"},
		{"huge scale", `{"scale":1e300}`, "scale"},
		{"zero seed", `{"seed":0}`, "seed"},
		{"negative workers", `{"workers":-2}`, "workers"},
		{"negative max_cycles", `{"max_cycles":-5}`, "max_cycles"},
		{"unknown experiment", `{"experiments":["fig42"]}`, "unknown experiment"},
		{"malformed JSON", `{"scale":`, "invalid JSON"},
		{"unknown field", `{"scael":1}`, "invalid JSON"},
		{"trailing garbage", `{} {}`, "trailing data"},
		{"wrong type", `{"experiments":"fig4"}`, "invalid JSON"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ids, opts, _, err := decodeJobRequest(strings.NewReader(c.body))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected valid body: %v", err)
				}
				if len(ids) == 0 {
					t.Fatal("accepted body resolved no experiment ids")
				}
				if opts.Scale <= 0 || opts.Seed == 0 {
					t.Fatalf("accepted body lost defaults: %+v", opts)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid body %s (ids %v)", c.body, ids)
			}
			var reqErr *requestError
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
			if !errors.As(err, &reqErr) {
				t.Errorf("error %T is not a *requestError; the handler would answer 500, not 400", err)
			}
		})
	}
}

// TestDecodeSimRequestBounds: the worker endpoint's decoder refuses
// every config field a CLI would refuse, and enum values that name no
// ISA, fetch policy or memory organisation, as a *requestError naming
// the field — never simulating (and caching) something that does not
// exist.
func TestDecodeSimRequestBounds(t *testing.T) {
	cases := []struct {
		body    string
		wantErr string // empty = accepted
	}{
		{`{"Threads":1,"Scale":0.02,"Seed":5,"ISA":1,"Policy":3,"Memory":2}`, ""},
		{`{"Threads":3,"Scale":0.02,"Seed":5}`, "Threads"},
		{`{"Threads":1,"Scale":1e300,"Seed":5}`, "scale"},
		{`{"Threads":1,"Scale":0.02,"Seed":5,"ISA":7}`, "ISA"},
		{`{"Threads":1,"Scale":0.02,"Seed":5,"Policy":9}`, "Policy"},
		{`{"Threads":1,"Scale":0.02,"Seed":5,"Memory":5}`, "Memory"},
	}
	for _, c := range cases {
		_, err := decodeSimRequest(strings.NewReader(c.body))
		var reqErr *requestError
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected valid config: %v", c.body, err)
		case c.wantErr != "" && (!errors.As(err, &reqErr) || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want a *requestError naming %s", c.body, err, c.wantErr)
		}
	}
}

// TestDecodeDefaults pins the omitted-field contract: missing scalars
// get the exps flag defaults, an omitted experiment list expands to
// every built-in in paper order.
func TestDecodeDefaults(t *testing.T) {
	ids, opts, _, err := decodeJobRequest(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, exp.IDs()) {
		t.Errorf("ids = %v, want every built-in", ids)
	}
	if opts.Scale != 1.0 || opts.Seed != 12345 || opts.Workers != 0 || opts.MaxCycles != 0 {
		t.Errorf("defaults wrong: %+v", opts)
	}
}

// TestSubmitValidationOverHTTP drives the same rejections through the
// real handler: the status code must be 400 with a JSON error body —
// the decoder's requestError must not surface as a 500.
func TestSubmitValidationOverHTTP(t *testing.T) {
	s := New(Config{Runner: exp.NewRunner(1, nil)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	for _, body := range []string{
		`{"scale":0}`, `{"scale":-3}`, `{"scale":1e300}`, `{"seed":0}`, `{"workers":-1}`,
		`{"max_cycles":-1}`, `{"experiments":["nope"]}`, `not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorEnvelope
		decErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
		if decErr != nil || e.Error.Message == "" {
			t.Errorf("POST %s: error body unreadable (%v) or empty", body, decErr)
		}
		if e.Error.Code != ErrBadRequest {
			t.Errorf("POST %s: error code %q, want %q", body, e.Error.Code, ErrBadRequest)
		}
	}
}
