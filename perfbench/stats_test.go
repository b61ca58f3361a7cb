package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false}, // rank 10, 9 beyond
		{20, 0.5, 10, true}, // rank 10, 10 beyond
		{99, 0.9, 0, false}, // rank 90, 9 beyond
		{100, 0.9, 90, true},
		{999, 0.99, 0, false}, // rank 990, 9 beyond
		{1000, 0.99, 990, true},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	iv := func(a, b time.Duration) interval { return interval{a, b} }
	parent := iv(0, 100)
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(50, 70)}, 70},
		{"overlapping chain", []interval{iv(40, 60), iv(10, 30), iv(20, 50)}, 50},
		{"duplicate", []interval{iv(10, 30), iv(10, 30)}, 80},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20},
		{"spills past the parent", []interval{iv(-20, 10), iv(90, 120)}, 80},
		{"outside the parent", []interval{iv(150, 160)}, 100},
		{"covers the parent", []interval{iv(0, 60), iv(50, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		for i := 0; i < 20; i++ {
			s := deriveSeed(seed, i)
			if s == 0 || s > 1_000_000 {
				t.Fatalf("deriveSeed(%d, %d) = %d, want 1..1000000", seed, i, s)
			}
			if s != deriveSeed(seed, i) {
				t.Fatalf("deriveSeed(%d, %d) is not deterministic", seed, i)
			}
			seen[s] = true
		}
	}
	if len(seen) < 990 {
		t.Errorf("1000 derivations gave only %d distinct seeds", len(seen))
	}
}
