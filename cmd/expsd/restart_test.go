package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mediasmt/internal/exp"
	"mediasmt/internal/serve"
)

// TestHelperExpsd is not a test: it is the expsd process the restart
// test launches and SIGKILLs. Re-execing the test binary with
// EXPSD_HELPER=1 and real flags after "--" runs main() for real —
// the only way to test recovery from a kill -9, which no in-process
// harness can survive.
func TestHelperExpsd(t *testing.T) {
	if os.Getenv("EXPSD_HELPER") != "1" {
		t.Skip("helper process only")
	}
	args := []string{"expsd"}
	for i, a := range os.Args {
		if a == "--" {
			args = append(args, os.Args[i+1:]...)
			break
		}
	}
	os.Args = args
	flag.CommandLine = flag.NewFlagSet("expsd", flag.ExitOnError)
	main()
}

// expsdProc is one live helper expsd.
type expsdProc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

// startExpsd launches the helper expsd with the given flags and waits
// for its health endpoint.
func startExpsd(t *testing.T, url string, flags ...string) *expsdProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-test.run=TestHelperExpsd", "--"}, flags...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPSD_HELPER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &expsdProc{cmd: cmd, stderr: &stderr}
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("expsd stderr:\n%s", stderr.String())
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("expsd did not come up at %s; stderr:\n%s", url, stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// kill SIGKILLs the helper — the crash the journal exists for.
func (p *expsdProc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	_, _ = p.cmd.Process.Wait()
}

func getJob(t *testing.T, url, id string) (int, serve.JobView) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v serve.JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

// TestRestartRecoversKilledJob is the ISSUE's acceptance scenario end
// to end: submit a job, SIGKILL the daemon mid-run, restart it on the
// same cache and journal, and watch the job — same id — finish with
// byte-identical CSV to an independent in-process run, having
// re-executed only the configurations the dead process had not
// already cached.
func TestRestartRecoversKilledJob(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary and runs real simulations")
	}
	cacheDir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	url := "http://" + addr
	flags := []string{"-addr", addr, "-j", "2", "-cache-dir", cacheDir}

	const body = `{"experiments":["all"],"scale":0.02,"seed":7}`
	first := startExpsd(t, url, flags...)
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var submitted serve.JobView
	if err := json.Unmarshal(raw, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID != "job-1" {
		t.Fatalf("submitted id = %s, want job-1", submitted.ID)
	}

	// Kill once the run is demonstrably mid-flight: at least one result
	// cached (so the restart has something to reuse) and the job not
	// yet settled (so the journal has something to recover).
	// Cache entries live under 32-hex fingerprint directories; the
	// journal's "jobs" dir must not count as cached work.
	hexDir := strings.Repeat("?", 32)
	deadline := time.Now().Add(60 * time.Second)
	for {
		entries, _ := filepath.Glob(filepath.Join(cacheDir, hexDir, "*.json"))
		code, v := getJob(t, url, "job-1")
		if code == http.StatusOK && (v.Status == serve.JobOK || v.Status == serve.JobFailed) {
			t.Fatalf("job settled (%s) before the kill window; enlarge the workload", v.Status)
		}
		if len(entries) >= 1 && code == http.StatusOK && v.Status == serve.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no kill window: %d cache entries, job status %q", len(entries), v.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	first.kill()

	// The restarted daemon must re-admit job-1 from the journal and
	// finish it.
	startExpsd(t, url, flags...)
	code, v := getJob(t, url, "job-1")
	if code != http.StatusOK {
		t.Fatalf("job-1 after restart: status %d, want it re-admitted", code)
	}
	deadline = time.Now().Add(2 * time.Minute)
	for v.Status != serve.JobOK && v.Status != serve.JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("recovered job did not settle; status %q", v.Status)
		}
		time.Sleep(25 * time.Millisecond)
		_, v = getJob(t, url, "job-1")
	}
	if v.Status != serve.JobOK {
		t.Fatalf("recovered job = %s (%s), want ok", v.Status, v.Error)
	}
	// Restart convergence did real recovery, not a full re-run: the
	// killed process's cached results were reused, and the restarted
	// process executed exactly the misses.
	if v.CacheHits == 0 {
		t.Error("recovered run had no cache hits: the first process's work was thrown away")
	}
	if v.Simulations != v.CacheMisses {
		t.Errorf("recovered run executed %d sims for %d misses; must re-execute only uncached configs",
			v.Simulations, v.CacheMisses)
	}

	resp, err = http.Get(url + "/v1/jobs/job-1/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d, body %s", resp.StatusCode, gotCSV)
	}

	// Independent reference: the same experiments in-process, no cache,
	// no daemon — the output a never-killed run would produce.
	runner := exp.NewRunner(2, nil)
	suite, err := runner.NewSuite(exp.Options{Scale: 0.02, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := suite.RunExperimentsContext(context.Background(), exp.IDs(), exp.Progress{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rs.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, want.Bytes()) {
		t.Errorf("recovered CSV is not byte-identical to the reference run:\ngot %d bytes:\n%s\nwant %d bytes:\n%s",
			len(gotCSV), truncate(gotCSV), want.Len(), truncate(want.Bytes()))
	}

	// The settled job must have left the journal, or the next restart
	// would re-run it.
	recs, _ := filepath.Glob(filepath.Join(cacheDir, "jobs", "job-*.json"))
	if len(recs) != 0 {
		t.Errorf("journal still holds %v after the job settled", recs)
	}
}

// TestWorkerSelfRegistration drives the dynamic-membership loop at
// the process level: a worker started with -register appears in the
// coordinator's live set by itself, and a graceful shutdown
// deregisters it — no static -peers list anywhere.
func TestWorkerSelfRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	coordAddr, workerAddr := freeAddr(), freeAddr()
	coordURL := "http://" + coordAddr
	startExpsd(t, coordURL, "-addr", coordAddr, "-j", "1", "-no-cache", "-no-journal")
	worker := startExpsd(t, "http://"+workerAddr,
		"-addr", workerAddr, "-j", "1", "-no-cache", "-no-journal",
		"-register", coordURL, "-register-interval", "100ms")

	workersOn := func() []string {
		resp, err := http.Get(coordURL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v serve.WorkersView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.Workers
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(workersOn()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never self-registered with the coordinator")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if got := workersOn(); len(got) != 1 || got[0] != "http://"+workerAddr {
		t.Fatalf("registered workers = %v, want [http://%s]", got, workerAddr)
	}

	// Graceful shutdown deregisters; the set empties without waiting
	// for any health-check eviction.
	if err := worker.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for len(workersOn()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still registered after SIGTERM: %v", workersOn())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestNonPositiveDurationFlagsExit2: each duration flag refuses a
// non-positive value before anything starts, with exit 2 and the flag
// named on stderr. -register-interval 0 used to panic in the ticker
// once the listener was up; the other two silently ran their defaults.
func TestNonPositiveDurationFlagsExit2(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][]string{
		{"-register-interval", "0", "-register", "http://127.0.0.1:1"},
		{"-peer-timeout", "0"},
		{"-peer-health-interval", "-1s"},
	} {
		t.Run(c[0], func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			args := append([]string{"-test.run=TestHelperExpsd", "--", "-addr", "127.0.0.1:0", "-no-cache", "-no-journal"}, c...)
			cmd := exec.CommandContext(ctx, exe, args...)
			cmd.Env = append(os.Environ(), "EXPSD_HELPER=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("expsd %v: %v, want exit status 2; stderr:\n%s", c, err, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, c[0]) || strings.Contains(msg, "panic:") {
				t.Errorf("expsd %v: stderr must name %s and not panic:\n%s", c, c[0], msg)
			}
		})
	}
}

func truncate(b []byte) string {
	const max = 2048
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d more bytes)", b[:max], len(b)-max)
}
