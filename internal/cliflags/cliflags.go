// Package cliflags holds the bounds checks every front-end applies to
// user-supplied simulation parameters, so cmd/smtsim, cmd/exps and the
// HTTP request decoder in internal/serve reject out-of-range values
// with one shared rule set instead of drifting copies. The invariant
// behind every check: a run must either do what the parameters say or
// refuse — sim.Config.Normalize and exp.NewSuite silently coerce zero
// values to defaults (scale <= 0 runs at 1.0, seed 0 runs as 12345),
// so an explicit out-of-range value has to be refused before it
// reaches them, never mislabelled.
//
// Each check takes the parameter's user-facing name ("-scale" for a
// CLI flag, "scale" for a JSON field) so the error reads in the
// caller's vocabulary while the bound itself stays shared.
package cliflags

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mediasmt/internal/core"
	"mediasmt/internal/sim"
)

// Scale rejects non-positive workload scales, which Normalize would
// silently run at 1.0 while the run labels itself with the raw value.
func Scale(name string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("non-positive %s %g (want > 0)", name, v)
	}
	return nil
}

// Seed rejects seed 0, which Normalize silently replaces with the
// default seed.
func Seed(name string, v uint64) error {
	if v == 0 {
		return fmt.Errorf("%s 0 would silently run the default seed %d; pass a positive seed", name, sim.DefaultSeed)
	}
	return nil
}

// Workers rejects negative worker counts; 0 is valid and means "use
// the full pool" (GOMAXPROCS for the CLIs, the daemon's -j for jobs).
func Workers(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("negative %s %d (want > 0, or 0 for the full worker pool)", name, v)
	}
	return nil
}

// MaxCycles rejects negative cycle caps; 0 is valid and keeps the
// simulator's default safety stop.
func MaxCycles(name string, v int64) error {
	if v < 0 {
		return fmt.Errorf("negative %s %d (want > 0, or 0 for the simulator default)", name, v)
	}
	return nil
}

// Duration rejects non-positive intervals and timeouts: a ticker
// panics on one, and the dist options silently replace one with their
// default.
func Duration(name string, v time.Duration) error {
	if v <= 0 {
		return fmt.Errorf("non-positive %s %v (want > 0)", name, v)
	}
	return nil
}

// PriorityBound is the magnitude limit on job scheduling priorities:
// a band wide enough for any real tiering, small enough that a typo'd
// value (a seed pasted into the priority field) is refused.
const PriorityBound = 100

// Priority bounds a job's scheduling priority. 0 is the default
// class; higher runs first under contention, equal classes stay FIFO.
func Priority(name string, v int) error {
	if v < -PriorityBound || v > PriorityBound {
		return fmt.Errorf("%s %d out of range (want %d..%d)", name, v, -PriorityBound, PriorityBound)
	}
	return nil
}

// WorkerURL validates one worker expsd base URL — the POST
// /v1/workers registration body, the expsd -register/-advertise flags
// and each element of Peers: an absolute http(s) URL with a host, no
// query or fragment (the dist executors append endpoint paths, so
// either would silently corrupt every request URL), trailing slashes
// stripped.
func WorkerURL(name, v string) (string, error) {
	p := strings.TrimSpace(v)
	if p == "" {
		return "", fmt.Errorf("empty %s (want a worker base URL, e.g. http://host:8344)", name)
	}
	u, err := url.Parse(p)
	if err != nil {
		return "", fmt.Errorf("%s: %q: %v", name, p, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("%s: %q is not an http(s) worker URL (want e.g. http://host:8344)", name, p)
	}
	if u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("%s: %q must be a base worker URL without query or fragment", name, p)
	}
	return strings.TrimRight(p, "/"), nil
}

// Peers parses the comma-separated worker expsd base URLs of exps
// -remote, each under WorkerURL's rules. An empty list is refused — a
// coordinator flag with no workers behind it is a configuration
// mistake, not local mode.
func Peers(name, v string) ([]string, error) {
	if strings.TrimSpace(v) == "" {
		return nil, fmt.Errorf("empty %s (want comma-separated worker URLs, e.g. http://host:8344)", name)
	}
	parts := strings.Split(v, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		u, err := WorkerURL(name+" element", p)
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// Enum rejects a value past last, the highest constant of its enum
// type. Configs decoded from the network carry enums as bare
// integers, and one that names no constant would otherwise simulate,
// and be cached, as something it does not name.
func Enum[E ~uint8](name string, v, last E) error {
	if v > last {
		return fmt.Errorf("%s %d out of range (want 0..%d)", name, v, last)
	}
	return nil
}

// Threads rejects hardware context counts the core cannot build. The
// accepted set is core.SupportedThreadCounts — the paper's evaluated
// machine sizes — so this check cannot drift from what
// core.ConfigForThreads actually constructs.
func Threads(name string, v int) error {
	if core.SupportsThreads(v) {
		return nil
	}
	counts := core.SupportedThreadCounts()
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = strconv.Itoa(n)
	}
	return fmt.Errorf("unsupported %s %d (want %s)", name, v, strings.Join(parts, ", "))
}
