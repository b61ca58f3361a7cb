package dist

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"mediasmt/internal/metrics"
)

const (
	// HealthPath is the worker liveness endpoint the health checker
	// probes; internal/serve answers it with a StatusView.
	HealthPath = "/v1/healthz"
	// DefaultHealthInterval spaces health-check sweeps over the
	// registered workers.
	DefaultHealthInterval = 5 * time.Second
	// healthThreshold is how many consecutive failed probes evict a
	// worker: one lost probe is routine (GC pause, connection reset),
	// two in a row means its work is better off elsewhere.
	healthThreshold = 2
)

// Members is the worker-membership registry a StealPool dispatches
// over. In expsd workers self-register (POST /v1/workers in
// internal/serve); exps -remote adds its listed workers once. In both,
// a HealthChecker evicts the ones that stop answering. Each worker is
// one record, which the pool and the checker update in place. All
// methods are safe for concurrent use.
type Members struct {
	mu      sync.Mutex
	workers []*worker // sorted by URL: a StealPool's key-hash domain

	// no-op when uninstrumented
	liveG            *metrics.Gauge
	toLiveC, toDeadC *metrics.Counter
}

// worker is one registered worker's record: the Remote a StealPool
// builds on its first request, the pool's requests in flight on it
// (counted down by requests that outlive the record), the checker's
// consecutive failed probes, and a context cancelled when it leaves.
// Members.mu guards it; a worker that registers again gets a new one.
type worker struct {
	url      string
	remote   *Remote
	inflight int
	failures int
	left     context.Context
	leave    context.CancelFunc
}

// NewMembers builds an empty registry.
func NewMembers() *Members { return &Members{} }

// Instrument attaches a membership gauge and health-transition
// counters. A nil registry is a no-op. Call once, before registration
// traffic starts.
func (m *Members) Instrument(reg *metrics.Registry) *Members {
	if reg == nil {
		return m
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.liveG = reg.Gauge("mediasmt_members", "currently registered worker peers")
	m.toLiveC = reg.Counter("mediasmt_peer_health_transitions_total",
		"worker membership transitions, by direction", metrics.L("to", "live"))
	m.toDeadC = reg.Counter("mediasmt_peer_health_transitions_total",
		"worker membership transitions, by direction", metrics.L("to", "dead"))
	return m
}

// cleanURL normalizes a worker base URL, so "http://h:1/" and
// "http://h:1" are one member and one Remote.
func cleanURL(url string) string {
	return strings.TrimRight(strings.TrimSpace(url), "/")
}

// findLocked returns the index of url's record, or where it would go.
func (m *Members) findLocked(url string) (int, bool) {
	return slices.BinarySearchFunc(m.workers, url, func(w *worker, url string) int {
		return strings.Compare(w.url, url)
	})
}

// Add registers a worker base URL and reports whether membership
// changed; re-registering an existing member (the periodic heartbeat)
// is a no-op.
func (m *Members) Add(url string) bool {
	url = cleanURL(url)
	if url == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := m.findLocked(url)
	if found {
		return false
	}
	left, leave := context.WithCancel(context.Background())
	m.workers = slices.Insert(m.workers, i, &worker{url: url, left: left, leave: leave})
	m.liveG.Set(int64(len(m.workers)))
	m.toLiveC.Inc()
	return true
}

// Remove evicts a worker, cancelling the pool's requests in flight on
// it, and reports whether it was a member.
func (m *Members) Remove(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := m.findLocked(cleanURL(url))
	if found {
		m.removeLocked(i)
	}
	return found
}

func (m *Members) removeLocked(i int) {
	m.workers[i].leave()
	m.workers = slices.Delete(m.workers, i, i+1)
	m.liveG.Set(int64(len(m.workers)))
	m.toDeadC.Inc()
}

// Snapshot returns the current members in sorted order.
func (m *Members) Snapshot() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.workers))
	for i, w := range m.workers {
		out[i] = w.url
	}
	return out
}

// HealthOptions tunes a HealthChecker. The zero value is usable.
type HealthOptions struct {
	// Interval spaces probe sweeps and bounds each probe; 0 means
	// DefaultHealthInterval.
	Interval time.Duration
}

// HealthChecker periodically probes every member's /v1/healthz and
// evicts workers that fail two consecutive sweeps, so dead peers stop
// receiving work without any operator action. Eviction is not
// permanent: a worker that comes back re-registers itself through its
// own heartbeat.
type HealthChecker struct {
	members  *Members
	interval time.Duration
	client   *http.Client

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewHealthChecker builds a checker over the registry; call Start to
// begin probing and Stop to shut it down.
func NewHealthChecker(m *Members, o HealthOptions) *HealthChecker {
	if o.Interval <= 0 {
		o.Interval = DefaultHealthInterval
	}
	return &HealthChecker{members: m, interval: o.Interval, client: &http.Client{},
		stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the probe loop in its own goroutine.
func (h *HealthChecker) Start() {
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(h.interval)
		defer ticker.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
			}
			h.sweep()
		}
	}()
}

// sweep probes every current member once, in parallel, and evicts the
// ones whose consecutive-failure count reaches the threshold. The
// count lives on the record, so a worker that leaves and registers
// again, even mid-sweep, starts from zero.
func (h *HealthChecker) sweep() {
	m := h.members
	m.mu.Lock()
	workers := slices.Clone(m.workers)
	m.mu.Unlock()
	ok := make([]bool, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok[i] = h.probe(w.url)
		}()
	}
	wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, w := range workers {
		if ok[i] {
			w.failures = 0
			continue
		}
		w.failures++
		if j, found := m.findLocked(w.url); found && m.workers[j] == w && w.failures >= healthThreshold {
			m.removeLocked(j)
		}
	}
}

// probe reports whether one worker answered its health endpoint.
func (h *HealthChecker) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), h.interval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+HealthPath, nil)
	if err != nil {
		return false
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBody)) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode == http.StatusOK
}

// Stop halts probing and waits for the loop to exit. Safe to call
// more than once.
func (h *HealthChecker) Stop() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}
