package serve

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"mediasmt/internal/exp"
	"mediasmt/internal/metrics"
)

// TestLaggingSubscriberDropped pins the publish-side contract the SSE
// handler depends on: a subscriber whose buffer is full is dropped —
// its channel closed mid-stream, the drop counted — while the history
// keeps every event for its reconnect.
func TestLaggingSubscriberDropped(t *testing.T) {
	reg := metrics.New()
	dropped := reg.Counter("mediasmt_sse_dropped_subscribers_total", "")
	j := newJob("job-1", []string{"table1"}, exp.Options{}, 0, dropped)

	_, ch, done := j.subscribe(1)
	if done || ch == nil {
		t.Fatal("fresh job reported settled")
	}
	j.publish("sim", map[string]int{"n": 1}) // fills the 1-slot buffer
	j.publish("sim", map[string]int{"n": 2}) // overflows: subscriber dropped

	// The buffered event still drains, then the channel is closed —
	// exactly what makes handleEvents' !open branch end the stream.
	if ev, open := <-ch; !open || ev.name != "sim" {
		t.Fatalf("first buffered event: open=%v name=%q", open, ev.name)
	}
	if _, open := <-ch; open {
		t.Fatal("channel still open after the subscriber lagged past its buffer")
	}
	if got := dropped.Value(); got != 1 {
		t.Errorf("dropped counter = %d, want 1", got)
	}
	// unsubscribe after the drop must not double-close.
	j.unsubscribe(ch)

	// A reconnecting subscriber replays the full history, nothing lost.
	history, ch2, done := j.subscribe(4)
	if done {
		t.Fatal("job reported settled after publishes")
	}
	defer j.unsubscribe(ch2)
	if len(history) != 2 {
		t.Fatalf("replayed %d events, want 2", len(history))
	}

	// A healthy subscriber is untouched by another's drop.
	j.publish("sim", map[string]int{"n": 3})
	if got := dropped.Value(); got != 1 {
		t.Errorf("dropped counter moved to %d without a lagging subscriber", got)
	}
	select {
	case ev := <-ch2:
		if ev.name != "sim" {
			t.Errorf("healthy subscriber got %q", ev.name)
		}
	default:
		t.Error("healthy subscriber missed the live event")
	}
}

// TestEventsStreamEndsAfterSettle reads the SSE stream to EOF: once
// the job settles and publish/finish close the subscriber channels,
// the handler must end the response body on its own — the closed-
// channel branch the lagging drop shares.
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
		j := newJob("job-1", []string{"table1"}, exp.Options{}, 0, nil)
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
