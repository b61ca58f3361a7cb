package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/exp"
	"mediasmt/internal/metrics"
)

// TestJournalRoundTrip: records come back sorted by sequence, settling
// removes exactly one record, and the sequence high-water mark
// survives every record settling.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []JobRecord{
		{ID: "job-3", Seq: 3, Experiments: []string{"fig4"}, Scale: 0.02, Seed: 7, Priority: 2},
		{ID: "job-1", Seq: 1, Experiments: []string{"table1"}, Scale: 0.02, Seed: 7},
		{ID: "job-2", Seq: 2, Experiments: []string{"fig5"}, Scale: 0.05, Seed: 9, MaxCycles: 1000},
	} {
		if err := jl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, maxSeq, err := jl.Load()
	if err != nil {
		t.Fatal(err)
	}
	if maxSeq != 3 || len(recs) != 3 {
		t.Fatalf("Load: %d records, maxSeq %d; want 3 and 3", len(recs), maxSeq)
	}
	for i, want := range []string{"job-1", "job-2", "job-3"} {
		if recs[i].ID != want {
			t.Fatalf("record %d = %q, want %q (sorted by seq)", i, recs[i].ID, want)
		}
	}
	if recs[2].Priority != 2 || recs[1].MaxCycles != 1000 {
		t.Error("round trip lost priority or max_cycles")
	}

	for _, id := range []string{"job-1", "job-2", "job-3"} {
		if err := jl.Settle(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Settle("job-3"); err != nil {
		t.Fatalf("double settle must be a no-op, got %v", err)
	}
	recs, maxSeq, err = jl.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("settled journal still holds %v", recs)
	}
	if maxSeq != 3 {
		t.Fatalf("maxSeq after full settle = %d, want 3 (the _seq high-water mark)", maxSeq)
	}
}

// TestOpenJournalSweepsOrphans: a kill between a journal write's temp
// file and its rename leaves a .job-* file that Load skips. OpenJournal
// removes one an hour old, keeps a fresh one a live writer may still
// rename, and Load still returns the records.
func TestOpenJournalSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(JobRecord{ID: "job-1", Seq: 1, Experiments: []string{"table1"}}); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, journalTmpPrefix+"orphan")
	fresh := filepath.Join(dir, journalTmpPrefix+"fresh")
	for _, p := range []string{orphan, fresh} {
		if err := os.WriteFile(p, []byte(`{"id":"job-`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-time.Hour - time.Minute)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	if jl, err = OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("hour-old orphan survived OpenJournal (stat err %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file removed: %v", err)
	}
	recs, maxSeq, err := jl.Load()
	if err != nil || len(recs) != 1 || recs[0].ID != "job-1" || maxSeq != 1 {
		t.Errorf("Load after the sweep = %v, %d, %v; want [job-1], 1", recs, maxSeq, err)
	}
}

// TestJournalConcurrentAppendsKeepSeq: the server appends outside its
// own lock, so concurrent submissions race on the _seq high-water
// mark. Once every job settles, _seq must still equal the highest
// seq appended, or a restarted daemon would hand a settled job's id to
// the next submission.
func TestJournalConcurrentAppendsKeepSeq(t *testing.T) {
	const trials, appends = 50, 32
	for trial := 0; trial < trials; trial++ {
		jl, err := OpenJournal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for seq := int64(1); seq <= appends; seq++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := fmt.Sprintf("job-%d", seq)
				if err := jl.Append(JobRecord{ID: id, Seq: seq}); err != nil {
					t.Error(err)
				}
				if err := jl.Settle(id); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		_, maxSeq, err := jl.Load()
		if err != nil {
			t.Fatal(err)
		}
		if maxSeq != appends {
			t.Fatalf("trial %d: _seq = %d after %d concurrent appends, want %d", trial, maxSeq, appends, appends)
		}
	}
}

// TestJournalCorruptionTolerant: truncated, foreign, renamed and
// in-flight temp files are skipped, never an error — the journal must
// always load after a crash.
func TestJournalCorruptionTolerant(t *testing.T) {
	jl, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(JobRecord{ID: "job-1", Seq: 1, Experiments: []string{"table1"}}); err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(JobRecord{ID: "job-9", Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated.json":              []byte(`{"id":"job-2","se`),
		"notes.txt":                   []byte("not a record"),
		"renamed.json":                good, // body says job-9: identity untrustworthy
		journalTmpPrefix + "inflight": []byte(`{}`),
	} {
		if err := os.WriteFile(filepath.Join(jl.Dir(), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, maxSeq, err := jl.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("Load = %v, want only job-1", recs)
	}
	if maxSeq != 1 {
		t.Fatalf("maxSeq = %d, want 1", maxSeq)
	}
	if err := jl.Append(JobRecord{ID: "../escape", Seq: 2}); err == nil {
		t.Error("path-traversing id must be refused")
	}
}

// TestServerRecoversJournalledJobs is the restart-amnesia fix end to
// end at the package level: a journal holding an unsettled record
// (the crashed daemon's) is re-admitted by New under its original id,
// runs to completion, and leaves the journal empty; new submissions
// continue the id sequence past the recovered one.
func TestServerRecoversJournalledJobs(t *testing.T) {
	cacheDir := t.TempDir()
	jl, err := OpenJournal(filepath.Join(cacheDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	// The "crashed daemon" journalled two jobs: one runnable, one
	// naming an experiment this binary does not have.
	if err := jl.Append(JobRecord{
		ID: "job-1", Seq: 1, Experiments: []string{"table1"},
		Scale: 0.02, Seed: 7, Priority: 3, Created: time.Now().UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(JobRecord{
		ID: "job-2", Seq: 2, Experiments: []string{"no-such-experiment"}, Scale: 0.02, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}

	c, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	s := New(Config{Runner: exp.NewRunner(2, c), Journal: jl, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	ok := waitJob(t, ts, "job-1")
	if ok.Status != JobOK {
		t.Fatalf("recovered job-1 = %s (%s), want ok", ok.Status, ok.Error)
	}
	if ok.Priority != 3 {
		t.Errorf("recovered job-1 priority = %d, want 3", ok.Priority)
	}
	bad := waitJob(t, ts, "job-2")
	if bad.Status != JobFailed || !strings.Contains(bad.Error, "no-such-experiment") {
		t.Fatalf("recovered job-2 = %s (%q), want failed naming the unknown experiment", bad.Status, bad.Error)
	}
	if v := reg.Counter("mediasmt_jobs_recovered_total", "").Value(); v != 2 {
		t.Errorf("jobs_recovered_total = %d, want 2", v)
	}

	// Both settled: their records must be gone, but the id sequence
	// must continue past them.
	waitFor(t, "journal to drain", func() bool {
		recs, _, err := jl.Load()
		return err == nil && len(recs) == 0
	})
	v := submit(t, ts, `{"experiments":["table1"],"scale":0.02,"seed":7}`)
	if v.ID != "job-3" {
		t.Fatalf("post-recovery submission id = %s, want job-3 (sequence continues)", v.ID)
	}
	// And the new submission is journalled until it settles.
	waitJob(t, ts, v.ID)
	waitFor(t, "new submission's record to settle", func() bool {
		recs, _, err := jl.Load()
		return err == nil && len(recs) == 0
	})
}

// waitFor polls cond with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitJournalsPriority: a journalled submission carries its
// priority, and an out-of-band priority is a 400, not a 500.
func TestSubmitJournalsPriority(t *testing.T) {
	cacheDir := t.TempDir()
	jl, err := OpenJournal(filepath.Join(cacheDir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Runner: exp.NewRunner(1, c), Journal: jl})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"experiments":["table1"],"scale":0.02,"seed":7,"priority":101}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("priority 101: status %d, want 400", resp.StatusCode)
	}

	v := submit(t, ts, `{"experiments":["table1"],"scale":0.02,"seed":7,"priority":-5}`)
	if v.Priority != -5 {
		t.Fatalf("submitted priority = %d, want -5", v.Priority)
	}
	recs, _, err := jl.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The job may settle (and its record vanish) before we look; only
	// assert the priority when the record is still there.
	for _, rec := range recs {
		if rec.ID == v.ID && rec.Priority != -5 {
			t.Fatalf("journalled priority = %d, want -5", rec.Priority)
		}
	}
	waitJob(t, ts, v.ID)
}
