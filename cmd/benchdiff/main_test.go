package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	name, m, ok := parseBenchLine(
		"BenchmarkSimulatorThroughput-8   \t       1\t  57243119 ns/op\t   1.34e+06 siminsts/s\t    945000 simcycles/s")
	if !ok {
		t.Fatal("valid benchmark line not parsed")
	}
	if name != "BenchmarkSimulatorThroughput" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", name)
	}
	if m["siminsts/s"] != 1.34e6 || m["simcycles/s"] != 945000 || m["ns/op"] != 57243119 {
		t.Errorf("metrics = %v", m)
	}

	for _, line := range []string{
		"",
		"ok  \tmediasmt\t1.2s",
		"BenchmarkFoo-8", // no iteration count or metrics
		"Benchmark results follow:",
		"--- BENCH: BenchmarkFoo",
	} {
		if _, _, ok := parseBenchLine(line); ok {
			t.Errorf("parseBenchLine(%q) accepted a non-result line", line)
		}
	}

	// Sub-benchmark names pass through with the suffix stripped.
	name, _, ok = parseBenchLine("BenchmarkFig5RealMemory/mmx-4T-16 \t 1 \t 123 ns/op")
	if !ok || name != "BenchmarkFig5RealMemory/mmx-4T" {
		t.Errorf("sub-benchmark name = %q ok=%v", name, ok)
	}
}

func writeStream(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// event builds a test2json output event carrying one line of text.
func event(text string) string {
	return `{"Action":"output","Package":"mediasmt","Output":"` + text + `\n"}`
}

func TestParseFileAndDiff(t *testing.T) {
	basePath := writeStream(t,
		`{"Action":"start","Package":"mediasmt"}`,
		event(`BenchmarkSimulatorThroughput-8 \t 1 \t 50000000 ns/op \t 1000000 siminsts/s \t 700000 simcycles/s`),
		event(`ok  \tmediasmt\t1.2s`),
	)
	base, err := parseFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	check := func(current string, wantRegressed bool) {
		t.Helper()
		curPath := writeStream(t, event(current))
		cur, err := parseFile(curPath)
		if err != nil {
			t.Fatal(err)
		}
		regressed, err := diff(io.Discard, base, cur, basePath, curPath,
			[]gate{{"BenchmarkSimulatorThroughput", "siminsts/s", false, 0.25}})
		if err != nil {
			t.Fatal(err)
		}
		if regressed != wantRegressed {
			t.Errorf("%q: regressed = %v, want %v", current, regressed, wantRegressed)
		}
	}
	// Within bound (-20%), an improvement, and beyond bound (-30%).
	check(`BenchmarkSimulatorThroughput-4 \t 1 \t 1 ns/op \t 800000 siminsts/s`, false)
	check(`BenchmarkSimulatorThroughput-4 \t 1 \t 1 ns/op \t 2000000 siminsts/s`, false)
	check(`BenchmarkSimulatorThroughput-4 \t 1 \t 1 ns/op \t 700000 siminsts/s`, true)
}

// TestMultiRunBestValue pins the -count=N contract: the gate compares
// best runs (max for higher-is-better, min for lower-is-better), so
// one noisy run among three cannot fail a healthy change.
func TestMultiRunBestValue(t *testing.T) {
	basePath := writeStream(t,
		event(`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 9000 allocs/op`),
	)
	base, err := parseFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	// Two throttled runs and one healthy run; allocs noisy upward twice.
	curPath := writeStream(t,
		event(`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 600000 siminsts/s \t 9900 allocs/op`),
		event(`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1100000 siminsts/s \t 9100 allocs/op`),
		event(`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 650000 siminsts/s \t 10000 allocs/op`),
	)
	cur, err := parseFile(curPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := cur["BenchmarkSimulatorThroughput"]; len(got) != 3 {
		t.Fatalf("parsed %d runs, want 3", len(got))
	}
	v, err := lookup(cur, curPath, "BenchmarkSimulatorThroughput", "siminsts/s", false)
	if err != nil || v != 1100000 {
		t.Errorf("best siminsts/s = %g, %v; want max 1100000", v, err)
	}
	v, err = lookup(cur, curPath, "BenchmarkSimulatorThroughput", "allocs/op", true)
	if err != nil || v != 9100 {
		t.Errorf("best allocs/op = %g, %v; want min 9100", v, err)
	}
	regressed, err := diff(io.Discard, base, cur, basePath, curPath, gates)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Error("best runs are within both bounds, but diff reported a regression")
	}
}

// TestLowerMetricGate covers the allocs/op gate proper: growth beyond
// its 10% bound fails, shrinkage and zero baselines behave.
func TestLowerMetricGate(t *testing.T) {
	run := func(baseLine, curLine string) (bool, error) {
		t.Helper()
		basePath := writeStream(t, event(baseLine))
		base, err := parseFile(basePath)
		if err != nil {
			t.Fatal(err)
		}
		curPath := writeStream(t, event(curLine))
		cur, err := parseFile(curPath)
		if err != nil {
			t.Fatal(err)
		}
		return diff(io.Discard, base, cur, basePath, curPath, gates)
	}

	// +20% allocs with healthy throughput: regression.
	regressed, err := run(
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 1000 allocs/op`,
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 1200 allocs/op`)
	if err != nil || !regressed {
		t.Errorf("+20%% allocs: regressed=%v err=%v, want regression", regressed, err)
	}
	// Fewer allocs: fine.
	regressed, err = run(
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 1000 allocs/op`,
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 800 allocs/op`)
	if err != nil || regressed {
		t.Errorf("-20%% allocs: regressed=%v err=%v, want pass", regressed, err)
	}
	// Zero-alloc baseline stays zero: fine; becomes nonzero: regression.
	regressed, err = run(
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 0 allocs/op`,
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 0 allocs/op`)
	if err != nil || regressed {
		t.Errorf("0->0 allocs: regressed=%v err=%v, want pass", regressed, err)
	}
	regressed, err = run(
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 0 allocs/op`,
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 5 allocs/op`)
	if err != nil || !regressed {
		t.Errorf("0->5 allocs: regressed=%v err=%v, want regression", regressed, err)
	}
	// Current run missing a metric the baseline has: fail closed.
	if _, err = run(
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s \t 1000 allocs/op`,
		`BenchmarkSimulatorThroughput-8 \t 1 \t 1 ns/op \t 1000000 siminsts/s`); err == nil {
		t.Error("current missing allocs/op the baseline has did not error")
	}
}

// TestDiffMissingBenchmarkErrors pins the fail-closed contract: a
// gated benchmark or metric absent from an input is an error, not a
// pass, so a rename or a baseline taken without b.ReportAllocs()
// cannot silently disable a gate.
func TestDiffMissingBenchmarkErrors(t *testing.T) {
	for _, c := range []struct {
		name, base, cur string
	}{
		{"benchmark", `BenchmarkOther-8 \t 1 \t 10 ns/op \t 5 siminsts/s \t 3 allocs/op`,
			`BenchmarkOther-8 \t 1 \t 10 ns/op \t 5 siminsts/s \t 3 allocs/op`},
		{"current siminsts/s", `BenchmarkSimulatorThroughput-8 \t 1 \t 10 ns/op \t 5 siminsts/s \t 3 allocs/op`,
			`BenchmarkSimulatorThroughput-8 \t 1 \t 10 ns/op \t 5 simcycles/s \t 3 allocs/op`},
		{"baseline allocs/op", `BenchmarkSimulatorThroughput-8 \t 1 \t 10 ns/op \t 5 siminsts/s`,
			`BenchmarkSimulatorThroughput-8 \t 1 \t 10 ns/op \t 5 siminsts/s \t 3 allocs/op`},
	} {
		basePath, curPath := writeStream(t, event(c.base)), writeStream(t, event(c.cur))
		base, err := parseFile(basePath)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := parseFile(curPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := diff(io.Discard, base, cur, basePath, curPath, gates); err == nil {
			t.Errorf("missing %s did not error", c.name)
		}
	}
}

// TestBaselineFileParses guards the committed baseline: if it exists at
// the repo root it must parse and carry every gated metric.
func TestBaselineFileParses(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_baseline.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("no committed BENCH_baseline.json")
	}
	r, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		if _, err := lookup(r, path, g.bench, g.metric, g.lowerIsBetter); err != nil {
			t.Error(err)
		}
	}
}
