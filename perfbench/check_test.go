package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/dist"
	"mediasmt/internal/mem"
	"mediasmt/internal/obs"
	"mediasmt/internal/sim"
)

// smallResult simulates one tiny config through the same seam the
// benchmark uses.
func smallResult(t *testing.T) *sim.Result {
	t.Helper()
	cfg := sim.Config{ISA: core.ISAMOM, Threads: 2, Policy: core.PolicyICOUNT, Memory: mem.ModeConventional, Scale: 0.002, Seed: 7}
	r, err := dist.NewLocalFunc(1, obs.SimRunner(nil)).Execute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCheckResultRejectsTamperedResults(t *testing.T) {
	good := smallResult(t)
	if err := checkResult(good); err != nil {
		t.Fatalf("untampered result: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(r *sim.Result)
	}{
		{"issue census", func(r *sim.Result) { r.Core.CyclesMixed++ }},
		{"per-thread commits", func(r *sim.Result) { r.Core.PerThreadCommitted[1]++ }},
		{"committed beyond fetched", func(r *sim.Result) { r.Core.Fetched = r.Core.Committed - 1 }},
		{"completed programs", func(r *sim.Result) { r.Completed-- }},
		{"custom program list", func(r *sim.Result) { r.Cfg.Programs = []string{"mpeg2enc"} }},
	} {
		r := *good
		r.Core.PerThreadCommitted = append([]int64(nil), good.Core.PerThreadCommitted...)
		tc.tamper(&r)
		if err := checkResult(&r); err == nil {
			t.Errorf("%s: tampered result passed the conservation check", tc.name)
		}
	}
	if _, err := checkResults([]*sim.Result{good, nil}); err == nil {
		t.Error("a missing result passed checkResults")
	}
}

func TestOneByteCSVDifferenceFailsTheOperation(t *testing.T) {
	ref := []byte("key,isa,threads\nmmx/1/RR,mmx,1\n")
	var tl tally
	if !tl.record("campaign", compareCSV(append([]byte(nil), ref...), ref)) {
		t.Fatal("identical CSV failed")
	}
	for i := range ref {
		got := append([]byte(nil), ref...)
		got[i] ^= 1
		if tl.record("campaign", compareCSV(got, ref)) {
			t.Fatalf("CSV with byte %d flipped passed", i)
		}
	}
	if tl.record("campaign", compareCSV(ref[:len(ref)-1], ref)) {
		t.Fatal("truncated CSV passed")
	}
	if want := (tally{attempted: len(ref) + 2, failed: len(ref) + 1}); tl != want {
		t.Errorf("tally = %+v, want %+v", tl, want)
	}
}

func TestReadSSE(t *testing.T) {
	stream := "event: status\ndata: {\"status\":\"running\"}\n\n" +
		"event: experiment\ndata: {\"id\":\"fig4\",\"seconds\":0.5}\n\n" +
		"event: done\ndata: {\"status\":\"ok\"}\n\n" +
		"event: late\ndata: {}\n\n"
	var names []string
	err := readSSE(strings.NewReader(stream), func(name string, data []byte) (bool, error) {
		names = append(names, name+" "+string(data))
		return name == "done", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`status {"status":"running"}`, `experiment {"id":"fig4","seconds":0.5}`, `done {"status":"ok"}`}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("events = %q, want %q", names, want)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables this program
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	defs := func(ms []metricDef) []def {
		out := make([]def, len(ms))
		for i, m := range ms {
			out[i] = def{m.name, m.unit}
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, defs(endToEnd)) {
		t.Errorf("end_to_end = %v, program prints %v", doc.EndToEnd, defs(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, defs(perLayer)) {
		t.Errorf("per_layer = %v, program prints %v", doc.PerLayer, defs(perLayer))
	}
	var names, drivers []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		drivers = append(drivers, w)
	}
	sort.Strings(names)
	sort.Strings(drivers)
	if !reflect.DeepEqual(names, drivers) {
		t.Errorf("workloads = %v, program drives %v", names, drivers)
	}
}
