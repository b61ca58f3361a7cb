package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mediasmt/internal/exp"
)

// stalledClient is an SSE client that stops reading: the stream's
// first Flush blocks until resume is closed.
type stalledClient struct {
	*httptest.ResponseRecorder
	stalled, resume chan struct{}
	once            sync.Once
}

func (c *stalledClient) Flush() {
	c.once.Do(func() { close(c.stalled); <-c.resume })
	c.ResponseRecorder.Flush()
}

// TestSlowStreamReadsEveryEvent: a stream that stalls at position 0
// while the job publishes 1000 events and settles still delivers every
// event exactly once, in order, ending with done. Publishing never
// waits for it, and a live stream following the job meanwhile writes
// the same bytes.
func TestSlowStreamReadsEveryEvent(t *testing.T) {
	const n = 1000
	s := New(Config{Runner: exp.NewRunner(1, nil)})
	defer s.Close()
	j := newJob("job-1", []string{"table1"}, exp.Options{}, 0)
	stuffJob(s, j)
	stream := func(w http.ResponseWriter) <-chan struct{} {
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-1/events", nil))
		}()
		return served
	}
	c := &stalledClient{ResponseRecorder: httptest.NewRecorder(),
		stalled: make(chan struct{}), resume: make(chan struct{})}
	stalledDone := stream(c)
	<-c.stalled
	live := httptest.NewRecorder()
	liveDone := stream(live)
	for j.view().Subscribers < 2 {
		runtime.Gosched()
	}
	for i := 0; i < n; i++ {
		j.publish("sim", map[string]int{"n": i})
	}
	j.finish(&exp.ResultSet{}, nil)
	close(c.resume)
	<-stalledDone
	<-liveDone

	frames := strings.Split(strings.TrimSuffix(c.Body.String(), "\n\n"), "\n\n")
	if len(frames) != n+1 {
		t.Fatalf("stream delivered %d events, want %d", len(frames), n+1)
	}
	for i, f := range frames[:n] {
		if want := fmt.Sprintf("event: sim\ndata: {\"n\":%d}", i); f != want {
			t.Fatalf("event %d = %q, want %q", i, f, want)
		}
	}
	if !strings.HasPrefix(frames[n], "event: done\n") {
		t.Errorf("last event = %q, want done", frames[n])
	}
	if live.Body.String() != c.Body.String() {
		t.Error("the live stream and the stalled one wrote different events")
	}
	if v := j.view(); v.Subscribers != 0 || v.Events != n+1 {
		t.Errorf("after the streams ended: %d subscribers, %d events; want 0 and %d", v.Subscribers, v.Events, n+1)
	}
}

// TestEventsStreamEndsAfterSettle reads the SSE stream to EOF: once
// the job settles and its done event is written, the handler must end
// the response body on its own.
func TestEventsStreamEndsAfterSettle(t *testing.T) {
	ts := newTestServer(t, 2, 8)
	v := submit(t, ts, `{"experiments":["table1"]}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // blocks until the server ends the stream
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "event: done") {
		t.Errorf("stream ended without the done event:\n%s", body)
	}
	if !strings.HasSuffix(strings.TrimRight(body, "\n"), "}") {
		t.Errorf("stream did not end cleanly after done:\n%s", body)
	}
}

// TestJobSettlesAtomically: a job that reads as settled in its status
// view has already closed finished, so the job store can evict it. A
// client that saw its jobs settle must never meet a store still full of
// "in-flight" jobs.
func TestJobSettlesAtomically(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		j := newJob("job-1", []string{"table1"}, exp.Options{}, 0)
		go j.finish(&exp.ResultSet{}, nil)
		for j.view().Status != JobOK {
			runtime.Gosched() // let finish run when GOMAXPROCS is 1
		}
		select {
		case <-j.finished:
		default:
			t.Fatalf("trial %d: status ok before finished was closed", trial)
		}
	}
}
