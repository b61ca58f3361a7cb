package serve

import (
	"bytes"
	"context"
	"encoding/json"
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

// postSim POSTs one config to the worker endpoint with the given
// fingerprint header ("" omits it).
func postSim(t *testing.T, ts *httptest.Server, body []byte, fp string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+dist.SimsPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if fp != "" {
		req.Header.Set(dist.FingerprintHeader, fp)
	}
	resp, err := http.DefaultClient.Do(req)
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

func encodedConfig(t *testing.T, cfg sim.Config) []byte {
	t.Helper()
	data, err := sim.EncodeConfig(cfg.Normalize())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkerEndpointExecutesAndCaches: POST /v1/sims runs the config
// through the shared Runner — so a repeat is served from the worker's
// cache without executing — and the response decodes to the same
// result a direct sim.Run produces.
func TestWorkerEndpointExecutesAndCaches(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	cfg := sim.Config{ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR, Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7}

	code, raw := postSim(t, ts, encodedConfig(t, cfg), cache.Fingerprint())
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	got, err := sim.DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Errorf("worker result diverged: cycles %d vs %d", got.Cycles, want.Cycles)
	}

	// The repeat must be a cache hit: sims_executed stays at 1.
	code, raw = postSim(t, ts, encodedConfig(t, cfg), cache.Fingerprint())
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, raw)
	}
	if got := simsExecuted(t, ts); got != 1 {
		t.Errorf("sims_executed = %d after one cold and one warm request, want 1", got)
	}
}

// simsExecuted reads a server's sims_executed from its status view.
func simsExecuted(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fp struct {
		SimsExecuted int64 `json:"sims_executed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fp); err != nil {
		t.Fatal(err)
	}
	return fp.SimsExecuted
}

// TestWorkerEndpointRejections pins the worker's error contract:
// fingerprint skew is 409, malformed or out-of-range configs are 400,
// and a config that runs and fails is 422 carrying the simulation
// error.
func TestWorkerEndpointRejections(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	valid := sim.Config{ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR, Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7}

	code, raw := postSim(t, ts, encodedConfig(t, valid), "cachefmt-v0+other-sim")
	if code != http.StatusConflict {
		t.Errorf("fingerprint skew: status %d (%s), want 409", code, raw)
	}
	if !strings.Contains(string(raw), cache.Fingerprint()) {
		t.Errorf("409 body does not report the worker's fingerprint: %s", raw)
	}

	code, raw = postSim(t, ts, []byte("{not json"), cache.Fingerprint())
	if code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d (%s), want 400", code, raw)
	}

	for _, c := range []struct {
		field string
		set   func(*sim.Config)
	}{
		{"threads", func(c *sim.Config) { c.Threads = 3 }},
		{"ISA", func(c *sim.Config) { c.ISA = 7 }},
		{"Policy", func(c *sim.Config) { c.Policy = 9 }},
		{"Memory", func(c *sim.Config) { c.Memory = 5 }},
		{"program list", func(c *sim.Config) { c.Programs = []string{} }},
	} {
		bad := valid
		c.set(&bad)
		code, raw = postSim(t, ts, encodedConfig(t, bad), cache.Fingerprint())
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusBadRequest ||
			env.Error.Code != ErrBadRequest || !strings.Contains(env.Error.Message, c.field) {
			t.Errorf("out-of-range %s: status %d (%s), want a bad_request 400 naming %s", c.field, code, raw, c.field)
		}
	}

	capped := valid
	capped.MaxCycles = 1000
	code, raw = postSim(t, ts, encodedConfig(t, capped), cache.Fingerprint())
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "MaxCycles") {
		t.Errorf("capped sim: status %d (%s), want 422 carrying the simulation error", code, raw)
	}
}

// memProbes are memory overrides that panicked, spun a run to its
// cycle cap, silently modelled a different machine or grew the heap
// without bound before sim.Config.Validate refused them; each names
// the field its refusal must name.
var memProbes = []struct {
	field string
	set   func(*mem.Config)
}{
	{"L1Banks", func(c *mem.Config) { c.L1Banks = 0 }},
	{"IBanks", func(c *mem.Config) { c.IBanks = 0 }},
	{"L2Banks", func(c *mem.Config) { c.L2Banks = 0 }},
	{"DRAM.RowBytes", func(c *mem.Config) { c.DRAM.RowBytes = 0 }},
	{"DRAM.Banks", func(c *mem.Config) { c.DRAM.Banks = 0 }},
	{"DRAM.BeatBytes", func(c *mem.Config) { c.DRAM.BeatBytes = 0 }},
	{"L1Line", func(c *mem.Config) { c.L1Line = 0 }},
	{"L1Line", func(c *mem.Config) { c.L1Line = 48 }},
	{"WBDepth", func(c *mem.Config) { c.WBDepth = -1 }},
	{"WBDepth", func(c *mem.Config) { c.WBDepth = 0 }},
	{"DRAM.QueueCap", func(c *mem.Config) { c.DRAM.QueueCap = 0 }},
	{"L2MSHRs", func(c *mem.Config) { c.L2MSHRs = 0 }},
	{"L1MSHRs", func(c *mem.Config) { c.L1MSHRs = 0 }},
	{"GeneralPorts", func(c *mem.Config) { c.GeneralPorts = 0 }},
	{"L1Banks", func(c *mem.Config) { c.L1Banks = 3 }},
	{"L2Size", func(c *mem.Config) { c.L2Size = 1 << 30 }},
}

// memProbe is the probe config: one MMX thread on conventional memory
// with the probe's override applied.
func memProbe(set func(*mem.Config)) sim.Config {
	mcfg := mem.DefaultConfig(mem.ModeConventional)
	set(&mcfg)
	return sim.Config{
		ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR, Memory: mem.ModeConventional,
		Scale: 0.01, Seed: 7, MaxCycles: 200_000, MemOverride: &mcfg,
	}
}

// TestMemoryProbesRefused: every probe override is a sim.Run error
// naming its field, and a bad_request 400 naming it at /v1/sims.
func TestMemoryProbesRefused(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	for _, p := range memProbes {
		cfg := memProbe(p.set)
		if _, err := sim.Run(cfg); err == nil || !strings.Contains(err.Error(), p.field) {
			t.Errorf("%s probe: sim.Run err = %v, want an error naming it", p.field, err)
		}
		code, raw := postSim(t, ts, encodedConfig(t, cfg), cache.Fingerprint())
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusBadRequest ||
			env.Error.Code != ErrBadRequest || !strings.Contains(env.Error.Message, p.field) {
			t.Errorf("%s probe: status %d (%s), want a bad_request 400 naming it", p.field, code, raw)
		}
	}
}

// TestMutuallyPeeredDaemonsDoNotRecurse: two daemons registered as
// each other's workers, each on the expsd executor stack (a StealPool
// over Members with local failover), must serve a forwarded
// simulation locally instead of bouncing it back and forth — the
// ForwardedHeader/NoForward guard caps every config at one
// coordinator→worker hop.
func TestMutuallyPeeredDaemonsDoNotRecurse(t *testing.T) {
	// Late-bound handlers break the URL chicken-and-egg: each server's
	// pool needs the other's URL before its handler exists.
	var hA, hB http.Handler
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hA.ServeHTTP(w, r) }))
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hB.ServeHTTP(w, r) }))
	t.Cleanup(tsB.Close)

	mkServer := func(peerURL string) *Server {
		t.Helper()
		c, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		members := dist.NewMembers()
		members.Add(peerURL)
		steal := dist.NewStealPool(members, dist.NewLocal(2), dist.StealOptions{})
		t.Cleanup(steal.Close)
		s := New(Config{Runner: exp.NewRunnerExecutor(steal, c), MaxJobs: 4, Members: members})
		t.Cleanup(s.Close)
		return s
	}
	hA = mkServer(tsB.URL).Handler()
	hB = mkServer(tsA.URL).Handler()

	cfg := sim.Config{ISA: core.ISAMMX, Threads: 1, Policy: core.PolicyRR, Memory: mem.ModeIdeal, Scale: 0.02, Seed: 13}
	// An unforwarded request to A forwards to B exactly once; B's own
	// pool must execute it rather than forward it back to A.
	code, raw := postSim(t, tsA, encodedConfig(t, cfg), cache.Fingerprint())
	if code != http.StatusOK {
		t.Fatalf("mutually-peered execution: status %d: %s", code, raw)
	}
	if _, err := sim.DecodeResult(raw); err != nil {
		t.Fatal(err)
	}
	if a, b := simsExecuted(t, tsA), simsExecuted(t, tsB); a != 0 || b != 1 {
		t.Errorf("sims_executed A=%d B=%d, want 0 and 1 (one hop, then local)", a, b)
	}
}

// TestCoordinatorOverWorkerServer is the serve-level half of the
// distributed acceptance criterion: a coordinator suite driving this
// server through the exps -remote stack (a StealPool over the listed
// worker, local failover) executes zero local simulations, the
// worker's counter owns the work, and a warm coordinator pass adds
// nothing anywhere.
func TestCoordinatorOverWorkerServer(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	members := dist.NewMembers()
	members.Add(ts.URL)
	steal := dist.NewStealPool(members, dist.NewLocal(2), dist.StealOptions{})
	t.Cleanup(steal.Close)
	runner := exp.NewRunnerExecutor(steal, nil)

	run := func() *exp.ResultSet {
		t.Helper()
		suite, err := runner.NewSuite(exp.Options{Scale: 0.02, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := suite.RunExperimentsContext(context.Background(), []string{"fig4"}, exp.Progress{})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	cold := run()
	if cold.Simulations != 0 {
		t.Errorf("cold coordinator executed %d local simulations, want 0", cold.Simulations)
	}
	executed := simsExecuted(t, ts)
	if executed != 8 {
		t.Errorf("worker executed %d simulations for fig4, want 8", executed)
	}

	warm := run()
	if warm.Simulations != 0 {
		t.Errorf("warm coordinator executed %d local simulations, want 0", warm.Simulations)
	}
	if got := simsExecuted(t, ts); got != executed {
		t.Errorf("warm pass executed %d new worker simulations, want 0", got-executed)
	}

	var coldCSV, warmCSV bytes.Buffer
	if err := cold.WriteCSV(&coldCSV); err != nil {
		t.Fatal(err)
	}
	if err := warm.WriteCSV(&warmCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
		t.Error("warm coordinator CSV differs from cold")
	}
}

// forwardOnly exposes only the two methods dist.Executor declares —
// the shape of a tracing or metering wrapper.
type forwardOnly struct{ dist.Executor }

// TestWrappedExecutorCountsLikeBare: what wraps the executor must not
// change what a job counts. A coordinator over a worker server counts
// 0 local simulations and a local pool counts every fig4 config,
// whether the runner holds the executor itself or a wrapper that
// forwards only Execute and Workers.
func TestWrappedExecutorCountsLikeBare(t *testing.T) {
	worker := newTestServer(t, 2, 8)
	remote, err := dist.NewRemote([]string{worker.URL}, dist.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		exec dist.Executor
		want int64
	}{
		{"remote", remote, 0},
		{"local", dist.NewLocal(2), 8},
	} {
		for _, wrapped := range []bool{false, true} {
			exec := c.exec
			if wrapped {
				exec = forwardOnly{exec}
			}
			suite, err := exp.NewRunnerExecutor(exec, nil).NewSuite(exp.Options{Scale: 0.02, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := suite.RunExperimentsContext(context.Background(), []string{"fig4"}, exp.Progress{})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Simulations != c.want || suite.Simulations() != c.want {
				t.Errorf("%s (wrapped %v): %d simulations (suite %d), want %d",
					c.name, wrapped, rs.Simulations, suite.Simulations(), c.want)
			}
		}
	}
	if got := simsExecuted(t, worker); got != 8 {
		t.Errorf("worker executed %d simulations, want fig4's 8 once", got)
	}
}
