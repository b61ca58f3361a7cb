package dist

import (
	"context"
	"io"
	"net/http"
	"sort"
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
	// two in a row means shards are better off elsewhere.
	healthThreshold = 2
)

// Members is the worker-membership registry a StealPool shards over.
// In expsd workers self-register (POST /v1/workers in internal/serve)
// and a HealthChecker evicts the ones that stop answering; exps
// -remote adds its listed workers once. Executors that subscribe
// (StealPool) re-shard work as the set changes. All methods are safe
// for concurrent use.
type Members struct {
	mu   sync.Mutex
	urls map[string]bool
	subs []func(url string, added bool)

	// no-op when uninstrumented
	liveG            *metrics.Gauge
	toLiveC, toDeadC *metrics.Counter
}

// NewMembers builds an empty registry.
func NewMembers() *Members { return &Members{urls: make(map[string]bool)} }

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

// Add registers a worker base URL and reports whether membership
// changed; re-registering an existing member (the periodic heartbeat)
// is a no-op. Subscribers run synchronously under the registry lock,
// so a subscriber must not call back into Members.
func (m *Members) Add(url string) bool {
	url = cleanURL(url)
	if url == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.urls[url] {
		return false
	}
	m.urls[url] = true
	m.liveG.Set(int64(len(m.urls)))
	m.toLiveC.Inc()
	for _, fn := range m.subs {
		fn(url, true)
	}
	return true
}

// Remove evicts a worker and reports whether it was a member.
func (m *Members) Remove(url string) bool {
	url = cleanURL(url)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.urls[url] {
		return false
	}
	delete(m.urls, url)
	m.liveG.Set(int64(len(m.urls)))
	m.toDeadC.Inc()
	for _, fn := range m.subs {
		fn(url, false)
	}
	return true
}

// Snapshot returns the current members in sorted order — the stable
// shard domain every subscriber and coordinator agrees on.
func (m *Members) Snapshot() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return snapshotLocked(m.urls)
}

// Subscribe registers fn for membership changes and immediately
// replays the current members as additions, so a late subscriber
// (an executor built after the first registrations) still sees every
// member exactly once. fn runs under the registry lock: it must be
// fast and must not call back into Members.
func (m *Members) Subscribe(fn func(url string, added bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
	for _, u := range snapshotLocked(m.urls) {
		fn(u, true)
	}
}

func snapshotLocked(urls map[string]bool) []string {
	out := make([]string, 0, len(urls))
	for u := range urls {
		out = append(out, u)
	}
	sort.Strings(out)
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
// receiving shards without any operator action. Eviction is not
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
		failures := make(map[string]int)
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
			}
			h.sweep(failures)
		}
	}()
}

// sweep probes every current member once, in parallel, and evicts the
// ones whose consecutive-failure count reaches the threshold.
func (h *HealthChecker) sweep(failures map[string]int) {
	members := h.members.Snapshot()
	// Forget counts for workers that are no longer members (evicted
	// here, deregistered, or replaced) so a returning worker starts
	// clean.
	live := make(map[string]bool, len(members))
	for _, u := range members {
		live[u] = true
	}
	for u := range failures {
		if !live[u] {
			delete(failures, u)
		}
	}
	results := make([]bool, len(members))
	var wg sync.WaitGroup
	for i, u := range members {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			results[i] = h.probe(u)
		}(i, u)
	}
	wg.Wait()
	for i, u := range members {
		if results[i] {
			delete(failures, u)
			continue
		}
		failures[u]++
		if failures[u] >= healthThreshold {
			h.members.Remove(u)
			delete(failures, u)
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
