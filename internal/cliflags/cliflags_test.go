package cliflags

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestScale(t *testing.T) {
	for _, v := range []float64{0.001, 0.05, 1, 1000} {
		if err := Scale("-scale", v); err != nil {
			t.Errorf("Scale(%g) = %v, want nil", v, err)
		}
	}
	for _, v := range []float64{0, -0.5, -100, math.NaN(), math.Inf(1), math.Inf(-1), 1000.5, 1e300} {
		err := Scale("-scale", v)
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("Scale(%g) = %v, want error naming -scale", v, err)
		}
	}
}

func TestSeed(t *testing.T) {
	if err := Seed("seed", 1); err != nil {
		t.Errorf("Seed(1) = %v, want nil", err)
	}
	if err := Seed("seed", 0); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("Seed(0) = %v, want error naming seed", err)
	}
}

func TestWorkers(t *testing.T) {
	for _, v := range []int{0, 1, 64} {
		if err := Workers("-j", v); err != nil {
			t.Errorf("Workers(%d) = %v, want nil (0 means full pool)", v, err)
		}
	}
	if err := Workers("-j", -2); err == nil || !strings.Contains(err.Error(), "-j") {
		t.Errorf("Workers(-2) = %v, want error naming -j", err)
	}
}

func TestMaxCycles(t *testing.T) {
	for _, v := range []int64{0, 1, 200_000_000} {
		if err := MaxCycles("max_cycles", v); err != nil {
			t.Errorf("MaxCycles(%d) = %v, want nil (0 means simulator default)", v, err)
		}
	}
	if err := MaxCycles("max_cycles", -5); err == nil || !strings.Contains(err.Error(), "max_cycles") {
		t.Errorf("MaxCycles(-5) = %v, want error naming max_cycles", err)
	}
}

func TestDuration(t *testing.T) {
	for _, c := range []struct {
		v  time.Duration
		ok bool
	}{
		{time.Nanosecond, true},
		{500 * time.Millisecond, true},
		{10 * time.Minute, true},
		{0, false},
		{-time.Second, false},
	} {
		err := Duration("-peer-timeout", c.v)
		if c.ok && err != nil {
			t.Errorf("Duration(%v) = %v, want nil", c.v, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "-peer-timeout")) {
			t.Errorf("Duration(%v) = %v, want error naming -peer-timeout", c.v, err)
		}
	}
}

// TestNameReachesMessage pins the contract serve's decoder relies on:
// the caller's vocabulary (JSON field name, not flag name) is what the
// user reads back in a 400 body.
func TestNameReachesMessage(t *testing.T) {
	if err := Scale("scale", -1); err == nil || strings.Contains(err.Error(), "-scale") {
		t.Errorf("Scale with JSON-style name leaked a flag name: %v", err)
	}
}

func TestPeers(t *testing.T) {
	good := []struct {
		in   string
		want []string
	}{
		{"http://h:8344", []string{"http://h:8344"}},
		{"http://a:1/, https://b:2", []string{"http://a:1", "https://b:2"}},
		{" http://a:1 ,http://b:2 ", []string{"http://a:1", "http://b:2"}},
	}
	for _, tc := range good {
		got, err := Peers("-peers", tc.in)
		if err != nil {
			t.Errorf("Peers(%q) = %v, want ok", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("Peers(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Peers(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
	for _, in := range []string{"", "  ", "http://a:1,,http://b:2", "ftp://a:1", "host:8344", "/just/a/path", "http://", "http://h:1?x=1", "http://h:1#frag"} {
		if _, err := Peers("-peers", in); err == nil || !strings.Contains(err.Error(), "-peers") {
			t.Errorf("Peers(%q) = %v, want error naming -peers", in, err)
		}
	}
}
