package exp

import (
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

func tinySuite() *Suite {
	return NewSuite(Options{Scale: 0.05, Seed: 7})
}

func TestStaticExperiments(t *testing.T) {
	s := tinySuite()
	for _, id := range []string{"table1", "table2", "table3"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", id)
		}
	}
}

func TestTable1Content(t *testing.T) {
	out, err := tinySuite().Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"threads", "320", "window/thread"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Content(t *testing.T) {
	out, err := tinySuite().Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mpeg2enc", "mesa", "aggregate mmx", "deltas"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestFig4RunsAndCaches(t *testing.T) {
	s := tinySuite()
	out, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SMT+MMX IPC") || !strings.Contains(out, "speedup") {
		t.Errorf("fig4 output malformed:\n%s", out)
	}
	// 4 thread counts x 2 ISAs = 8 cached simulations.
	if got := len(s.completed()); got != 8 {
		t.Errorf("cache holds %d results, want 8", got)
	}
	// Re-running must not grow the cache.
	if _, err := s.Fig4(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.completed()); got != 8 {
		t.Errorf("cache grew to %d on re-run", got)
	}
}

func TestRunCacheKeysDistinct(t *testing.T) {
	s := tinySuite()
	if _, err := s.Run(core.ISAMMX, 1, core.PolicyRR, mem.ModeIdeal); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(core.ISAMOM, 1, core.PolicyRR, mem.ModeIdeal); err != nil {
		t.Fatal(err)
	}
	if len(s.completed()) != 2 {
		t.Error("distinct configurations must cache separately")
	}
}

func TestByIDAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Experiments) {
		t.Fatal("IDs/Experiments mismatch")
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) failed", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID must reject unknown ids")
	}
}

func TestHeadlineSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("headline runs many simulations")
	}
	out, err := tinySuite().Headline()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "best SMT+MMX", "best SMT+MOM", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline output missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatter(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("1", "2")
	tb.add("333", "4")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("formatted table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing separator row")
	}
}
