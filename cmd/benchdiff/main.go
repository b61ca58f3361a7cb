// Command benchdiff compares two `go test -json -bench` result streams
// and fails when a gated benchmark metric moves the wrong way beyond
// its bound. CI uses it to diff the run's BENCH_ci.json against the
// committed BENCH_baseline.json so the simulator's performance
// trajectory is a gate, not just an artifact:
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json
//
// The gates table below is the whole policy: BenchmarkSimulatorThroughput
// may lose at most 25% of its siminsts/s and grow its allocs/op by at
// most 10%. Improvements and noise within a bound pass. A gated
// benchmark or metric missing from either file is its own failure
// (exit 2), so a renamed benchmark or a baseline taken without
// b.ReportAllocs() cannot silently disable a gate.
//
// A stream may carry several runs of the same benchmark (go test
// -count=N); benchdiff compares best runs — max for higher-is-better
// metrics, min for lower-is-better — because the best run is the one
// least distorted by scheduler noise and thermal throttling on shared
// CI machines.
//
// Exit codes: 0 metrics within bounds, 1 regression beyond a bound,
// 2 usage error or a gated benchmark/metric absent from an input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json event stream benchdiff
// reads: benchmark result lines arrive as Action "output" events.
type testEvent struct {
	Action string
	Output string
}

// benchResults maps "BenchmarkName/sub" -> one metric map per run
// (go test -count=N emits N result lines per benchmark). The -8 style
// GOMAXPROCS suffix is stripped from names so baselines taken on
// machines with different core counts still line up.
type benchResults map[string][]map[string]float64

// parseFile extracts benchmark metrics from a test2json stream file.
func parseFile(path string) (benchResults, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Output events can split lines arbitrarily; reassemble the full
	// text stream first, then scan it line by line.
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: not a go test -json stream: %v", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}

	out := benchResults{}
	for _, line := range strings.Split(text.String(), "\n") {
		name, metrics, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		out[name] = append(out[name], metrics)
	}
	return out, nil
}

// parseBenchLine parses one benchmark result line:
//
//	BenchmarkSimulatorThroughput-8  1  57243119 ns/op  1.34e+06 siminsts/s ...
//
// returning the name without the GOMAXPROCS suffix and its metrics.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", nil, false
	}
	fields := strings.Fields(line)
	// Name, iteration count, then at least one value/unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	metrics := make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	return name, metrics, true
}

// lookup returns the benchmark's best value for the metric across all
// runs in the stream: max when higher is better, min when lower is.
func lookup(r benchResults, path, bench, metric string, lowerIsBetter bool) (float64, error) {
	runs, ok := r[bench]
	if !ok {
		return 0, fmt.Errorf("%s: benchmark %s not found", path, bench)
	}
	var best float64
	found := false
	for _, m := range runs {
		v, ok := m[metric]
		if !ok {
			continue
		}
		if !found || (lowerIsBetter && v < best) || (!lowerIsBetter && v > best) {
			best, found = v, true
		}
	}
	if !found {
		return 0, fmt.Errorf("%s: benchmark %s has no %s metric", path, bench, metric)
	}
	// A higher-is-better rate of zero means the benchmark did no work;
	// a lower-is-better count of zero (0 allocs/op) is a perfect score.
	if best < 0 || (best == 0 && !lowerIsBetter) {
		return 0, fmt.Errorf("%s: benchmark %s reports non-positive %s (%g)", path, bench, metric, best)
	}
	return best, nil
}

// gate is one enforced metric: the fraction by which the best current
// run may be worse than the best baseline run.
type gate struct {
	bench         string // benchmark name, GOMAXPROCS suffix excluded
	metric        string
	lowerIsBetter bool
	bound         float64
}

// gates is what benchdiff enforces.
var gates = []gate{
	{"BenchmarkSimulatorThroughput", "siminsts/s", false, 0.25},
	{"BenchmarkSimulatorThroughput", "allocs/op", true, 0.10},
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed go test -json bench stream to compare against")
	currentPath := flag.String("current", "BENCH_ci.json", "this run's go test -json bench stream")
	flag.Parse()

	base, err := parseFile(*baselinePath)
	var regressed bool
	if err == nil {
		var cur benchResults
		cur, err = parseFile(*currentPath)
		if err == nil {
			regressed, err = diff(os.Stdout, base, cur, *baselinePath, *currentPath, gates)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

// diff compares each gate's metric (best run against best run) and
// reports whether any moved the wrong way beyond its bound.
func diff(w io.Writer, base, cur benchResults, basePath, curPath string, gs []gate) (bool, error) {
	regressed := false
	for _, g := range gs {
		b, err := lookup(base, basePath, g.bench, g.metric, g.lowerIsBetter)
		if err != nil {
			return false, err
		}
		c, err := lookup(cur, curPath, g.bench, g.metric, g.lowerIsBetter)
		if err != nil {
			return false, err
		}
		var change float64
		switch {
		case b > 0:
			change = c/b - 1
		case c > 0:
			// From zero to nonzero: infinitely worse, but render finitely.
			change = 1
		}
		worse, sign := -change, "-"
		if g.lowerIsBetter {
			worse, sign = change, "+"
		}
		status := "ok"
		if worse > g.bound {
			status = fmt.Sprintf("REGRESSION beyond %s%.0f%% bound", sign, g.bound*100)
			regressed = true
		}
		fmt.Fprintf(w, "%s %s: baseline %.6g, current %.6g (%+.1f%%) — %s\n",
			g.bench, g.metric, b, c, change*100, status)
	}
	return regressed, nil
}
