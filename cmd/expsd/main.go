// Command expsd serves the experiment engine over HTTP: submit
// experiment sets as jobs, stream their progress as server-sent
// events, and fetch the finished JSON/CSV result sets — the same
// artifacts exps prints, produced by the same engine code path.
//
// Usage:
//
//	expsd [-addr :8344] [-j N] [-max-jobs N]
//	      [-register URL] [-advertise URL] [-register-interval D]
//	      [-peer-timeout D] [-peer-health-interval D]
//	      [-cache-dir DIR] [-no-cache] [-jobs-dir DIR] [-no-journal]
//	      [-fingerprint] [-pprof]
//
// -pprof additionally serves the standard net/http/pprof endpoints
// under /debug/pprof/ (CPU: /debug/pprof/profile?seconds=30, heap:
// /debug/pprof/heap), letting `go tool pprof` sample a live daemon
// mid-workload. Off by default: profiling endpoints reveal internals
// and cost CPU, so they are an explicit operator opt-in.
//
// All jobs share one worker pool (-j bounds simulations in flight
// across every job, default GOMAXPROCS) and one on-disk result cache
// (default $XDG_CACHE_HOME/mediasmt, the same store exps and smtsim
// use): a configuration any previous job or any previous process
// already simulated is served from disk without executing. The job
// store retains the -max-jobs most recent jobs; once it is full of
// settled jobs the oldest are evicted, and if every retained job is
// still running new submissions get 503 backpressure.
//
// The job queue is durable: every submission is journalled under
// -jobs-dir (default <cache-dir>/jobs) until it settles, and on
// startup expsd re-admits the unsettled jobs under their original
// ids, options and priorities. A daemon killed mid-job therefore
// resumes it on restart, and — because results read through the cache
// — re-executes only the configurations the dead process had not
// finished, converging on byte-identical output. -no-journal (or
// running cacheless without -jobs-dir) disables durability.
//
// Example session:
//
//	expsd -addr :8344 &
//	curl -s :8344/v1/jobs -d '{"experiments":["fig4","table4"],"scale":0.05,"priority":10}'
//	curl -N :8344/v1/jobs/job-1/events        # SSE progress until done
//	curl -s :8344/v1/jobs/job-1               # status + per-config errors
//	curl -s ':8344/v1/jobs/job-1/results?format=csv'
//	curl -s :8344/v1/metrics                  # Prometheus text (?format=json)
//	curl -s :8344/v1/healthz                  # status + engine metadata
//
// Every expsd is also a worker: POST /v1/sims executes one simulation
// config through the shared pool and cache and returns the encoded
// result. Membership is dynamic — workers register themselves instead
// of being listed on a coordinator flag. A worker started with
// -register posts its -advertise URL to the coordinator's
// POST /v1/workers and repeats it every -register-interval as a
// heartbeat; the coordinator health-checks registered workers every
// -peer-health-interval and drops the ones that stop answering, so
// dead peers stop receiving work. The coordinator sends each
// simulation to the live worker with the fewest requests in flight
// (the config key's home worker wins ties, keeping an idle fleet's
// caches hot on their share); a dropped worker's requests in flight,
// and any other retryable failure, fall over to local execution.
// Jobs carry an optional priority: under contention higher classes
// are admitted first, FIFO within a class. A worker on a different
// simulator version answers 409 and its results never mix in. Job
// views still report exact per-job counts, with "simulations" meaning
// local executions only.
//
// SIGINT/SIGTERM shut the listener down gracefully, deregister from
// the coordinator, and cancel simulations not yet started; completed
// results are already on disk, and journalled jobs resume on restart.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mediasmt/internal/cache"
	"mediasmt/internal/cliflags"
	"mediasmt/internal/dist"
	"mediasmt/internal/exp"
	"mediasmt/internal/metrics"
	"mediasmt/internal/obs"
	"mediasmt/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrently running simulations across all jobs (0 = GOMAXPROCS)")
	maxJobs := flag.Int("max-jobs", serve.DefaultMaxJobs, "max retained jobs; oldest settled jobs are evicted, a store full of running jobs refuses submissions")
	register := flag.String("register", "", "coordinator expsd URL to register with as a worker (worker mode)")
	advertise := flag.String("advertise", "", "URL this daemon is reachable at, sent to -register (default derived from -addr)")
	registerInterval := flag.Duration("register-interval", 15*time.Second, "how often to repeat the -register heartbeat")
	peerTimeout := flag.Duration("peer-timeout", dist.DefaultRequestTimeout, "per-request timeout against a registered worker")
	healthInterval := flag.Duration("peer-health-interval", dist.DefaultHealthInterval, "how often to health-check registered workers (eviction after consecutive failures)")
	cacheDir := flag.String("cache-dir", cache.DefaultDir(), "on-disk result cache directory ('' disables)")
	noCache := flag.Bool("no-cache", false, "disable the on-disk result cache")
	jobsDir := flag.String("jobs-dir", "", "durable job journal directory (default <cache-dir>/jobs)")
	noJournal := flag.Bool("no-journal", false, "disable the durable job journal (submissions are forgotten on restart)")
	fingerprint := flag.Bool("fingerprint", false, "print the cache fingerprint (cache format + simulator version), then exit")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	flag.Parse()

	if *fingerprint {
		fmt.Println(cache.Fingerprint())
		return
	}
	if err := cliflags.Workers("-j", *workers); err != nil {
		fmt.Fprintf(os.Stderr, "expsd: %v\n", err)
		os.Exit(2)
	}
	if *maxJobs <= 0 {
		fmt.Fprintf(os.Stderr, "expsd: non-positive -max-jobs %d (want > 0)\n", *maxJobs)
		os.Exit(2)
	}
	if err := errors.Join(
		cliflags.Duration("-register-interval", *registerInterval),
		cliflags.Duration("-peer-timeout", *peerTimeout),
		cliflags.Duration("-peer-health-interval", *healthInterval),
	); err != nil {
		fmt.Fprintf(os.Stderr, "expsd: %v\n", err)
		os.Exit(2)
	}
	var registerURL, advertiseURL string
	if *register != "" {
		var err error
		if registerURL, err = cliflags.WorkerURL("-register", *register); err != nil {
			fmt.Fprintf(os.Stderr, "expsd: %v\n", err)
			os.Exit(2)
		}
		if advertiseURL, err = cliflags.WorkerURL("-advertise", advertiseDefault(*advertise, *addr)); err != nil {
			fmt.Fprintf(os.Stderr, "expsd: %v\n", err)
			os.Exit(2)
		}
	} else if *advertise != "" {
		fmt.Fprintln(os.Stderr, "expsd: -advertise without -register (nothing to advertise to)")
		os.Exit(2)
	}

	store, err := cache.OpenIfEnabled(*cacheDir, *noCache)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expsd: cache disabled: %v\n", err)
		store = nil
	}

	// The journal lives next to the cache by default: cache.Prune only
	// touches hash-named entry directories, so <cache-dir>/jobs is safe
	// from it, and a durable queue with a shared cache is exactly what
	// makes restart recovery converge instead of redoing everything.
	var journal *serve.Journal
	journalNote := "journal off"
	if !*noJournal {
		dir := *jobsDir
		if dir == "" && store != nil {
			dir = filepath.Join(store.Dir(), "jobs")
		}
		if dir != "" {
			if journal, err = serve.OpenJournal(dir); err != nil {
				fmt.Fprintf(os.Stderr, "expsd: journal disabled: %v\n", err)
				journal = nil
			} else {
				journalNote = "journal " + dir
			}
		}
	}

	// One registry covers the whole process — each finished
	// simulation's stall and memory totals (obs.SimRunner), pool
	// saturation, peer requests and failovers (dist), engine
	// aggregates (exp) and the HTTP layer (serve) — and is scraped from
	// GET /v1/metrics.
	//
	// The executor stack, inside out: a local pool bounds this
	// process's simulations; the StealPool sends each simulation to the
	// dynamically registered worker with the fewest requests in flight
	// and keeps no queue of its own; the priority gate, the one place
	// work waits, admits contended work highest class first. With no
	// workers registered the StealPool degenerates to the local pool —
	// coordinator and standalone mode are the same wiring.
	reg := metrics.New()
	members := dist.NewMembers().Instrument(reg)
	local := dist.NewLocalFunc(*workers, obs.SimRunner(reg)).Instrument(reg)
	steal := dist.NewStealPool(members, local, dist.StealOptions{
		Remote:  dist.RemoteOptions{Timeout: *peerTimeout, Metrics: reg},
		Metrics: reg,
	})
	prio := dist.NewPriority(steal).Instrument(reg)
	runner := exp.NewRunnerExecutor(prio, store)
	runner.Instrument(reg)

	health := dist.NewHealthChecker(members, dist.HealthOptions{Interval: *healthInterval})
	health.Start()

	srv := serve.New(serve.Config{Runner: runner, MaxJobs: *maxJobs, Metrics: reg, Journal: journal, Members: members})
	handler := srv.Handler()
	if *pprofFlag {
		// Mount the net/http/pprof endpoints next to the API without
		// importing them into the serve package: profiling is an operator
		// opt-in on this daemon, never part of the served API surface.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	roleNote := "standalone"
	if registerURL != "" {
		go registerLoop(ctx, registerURL, advertiseURL, *registerInterval)
		roleNote = "worker of " + registerURL
	}

	cacheNote := "cache off"
	if store != nil {
		cacheNote = "cache " + store.Dir()
	}
	fmt.Fprintf(os.Stderr, "expsd: listening on %s (%d workers, %s, %d max jobs, %s, %s, %s)\n",
		*addr, runner.Workers(), roleNote, *maxJobs, cacheNote, journalNote, cache.Fingerprint())

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "expsd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		// Deregister the handler: a second signal during the drain
		// below force-quits instead of being swallowed.
		stop()
	}

	// Tell the coordinator we are leaving before jobs are cancelled, so
	// it stops sending us work and runs what it had in flight here
	// itself.
	if registerURL != "" {
		deregister(registerURL, advertiseURL)
	}
	health.Stop()
	// Cancel job contexts first: queued simulations fail fast, jobs
	// settle, and their SSE streams end — otherwise Shutdown would wait
	// out its whole timeout on event streams pinned to running jobs.
	srv.Close()
	steal.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "expsd: shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "expsd: bye")
}

// advertiseDefault derives the URL peers should reach us at when
// -advertise is not given: the -addr port on localhost, the only
// address we can assert without asking the network.
func advertiseDefault(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// registerLoop posts this worker's advertise URL to the coordinator —
// immediately, then every interval as a heartbeat. Registration is
// idempotent on the coordinator, so the heartbeat doubles as
// re-registration after a health-check eviction (a worker that was
// briefly unreachable rejoins by itself).
func registerLoop(ctx context.Context, coordinator, advertise string, interval time.Duration) {
	post := func() {
		body := fmt.Sprintf(`{"url":%q}`, advertise)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinator+"/v1/workers", bytes.NewReader([]byte(body)))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expsd: register with %s: %v\n", coordinator, err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "expsd: register with %s: status %d\n", coordinator, resp.StatusCode)
		}
	}
	post()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			post()
		}
	}
}

// deregister tells the coordinator this worker is going away; best
// effort — the health checker evicts us anyway if the request is lost.
func deregister(coordinator, advertise string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	body := fmt.Sprintf(`{"url":%q}`, advertise)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, coordinator+"/v1/workers", bytes.NewReader([]byte(body)))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}
