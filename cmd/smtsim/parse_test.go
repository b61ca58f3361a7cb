package main

import (
	"math"
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

func TestParseISA(t *testing.T) {
	cases := []struct {
		in   string
		want core.ISAKind
		ok   bool
	}{
		{"mmx", core.ISAMMX, true},
		{"mom", core.ISAMOM, true},
		{"sse", 0, false},
		{"", 0, false},
		{"MMX", 0, false},
	}
	for _, c := range cases {
		got, err := parseISA(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseISA(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("parseISA(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want core.Policy
		ok   bool
	}{
		{"rr", core.PolicyRR, true},
		{"ic", core.PolicyICOUNT, true},
		{"oc", core.PolicyOCOUNT, true},
		{"bl", core.PolicyBALANCE, true},
		{"lru", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := parsePolicy(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parsePolicy(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("parsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseMemMode(t *testing.T) {
	cases := []struct {
		in   string
		want mem.Mode
		ok   bool
	}{
		{"ideal", mem.ModeIdeal, true},
		{"conventional", mem.ModeConventional, true},
		{"decoupled", mem.ModeDecoupled, true},
		{"sram", 0, false},
	}
	for _, c := range cases {
		got, err := parseMemMode(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseMemMode(%q): err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Errorf("parseMemMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("mom", "oc", "decoupled", 8, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ISA != core.ISAMOM || cfg.Policy != core.PolicyOCOUNT || cfg.Memory != mem.ModeDecoupled {
		t.Errorf("buildConfig enums wrong: %+v", cfg)
	}
	if cfg.Threads != 8 || cfg.Scale != 0.5 || cfg.Seed != 99 {
		t.Errorf("buildConfig scalars wrong: %+v", cfg)
	}
	for _, bad := range [][3]string{
		{"avx", "rr", "ideal"},
		{"mmx", "xx", "ideal"},
		{"mmx", "rr", "flat"},
	} {
		if _, err := buildConfig(bad[0], bad[1], bad[2], 1, 1, 1); err == nil {
			t.Errorf("buildConfig(%v) accepted invalid flags", bad)
		}
	}
	// sim.Config.Validate refuses the thread count, naming the field.
	for _, th := range []int{0, 3, 16, -1} {
		if _, err := buildConfig("mmx", "rr", "ideal", th, 1, 1); err == nil || !strings.Contains(err.Error(), "Threads") {
			t.Errorf("buildConfig(threads %d) = %v, want an error naming Threads", th, err)
		}
	}
	// Normalize would silently run a non-positive scale at 1.0, and a
	// NaN, infinite or huge one runs one round, while the report echoed
	// the raw flag; they must be rejected up front.
	for _, sc := range []float64{0, -5, math.NaN(), math.Inf(1), 1e300} {
		if _, err := buildConfig("mmx", "rr", "ideal", 1, sc, 1); err == nil {
			t.Errorf("buildConfig accepted scale %g", sc)
		}
	}
	// Seed 0 would silently run the default seed (shared bound with
	// exps and expsd via internal/cliflags).
	if _, err := buildConfig("mmx", "rr", "ideal", 1, 1, 0); err == nil {
		t.Error("buildConfig accepted seed 0")
	}
}
