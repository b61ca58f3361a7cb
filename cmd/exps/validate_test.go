package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mediasmt/internal/exp"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name          string
		scale         float64
		seed          uint64
		workers       int
		maxCycles     int64
		remoteTimeout time.Duration
		wantErr       string // empty = valid
	}{
		{"defaults", 1.0, 12345, 8, 0, 10 * time.Minute, ""},
		{"auto workers", 0.05, 7, 0, 1000, time.Second, ""},
		{"negative scale", -1, 12345, 8, 0, time.Second, "-scale"},
		{"zero scale", 0, 12345, 8, 0, time.Second, "-scale"},
		{"NaN scale", math.NaN(), 12345, 8, 0, time.Second, "-scale"},
		{"infinite scale", math.Inf(1), 12345, 8, 0, time.Second, "-scale"},
		{"huge scale", 1e300, 12345, 8, 0, time.Second, "-scale"},
		{"zero seed", 1.0, 0, 8, 0, time.Second, "-seed"},
		{"negative workers", 1.0, 12345, -2, 0, time.Second, "-j"},
		{"negative max-cycles", 1.0, 12345, 8, -5, time.Second, "-max-cycles"},
		{"zero remote-timeout", 1.0, 12345, 8, 0, 0, "-remote-timeout"},
		{"negative remote-timeout", 1.0, 12345, 8, 0, -time.Second, "-remote-timeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.scale, c.seed, c.workers, c.maxCycles, c.remoteTimeout)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %s", err, c.wantErr)
			}
		})
	}
}

func TestExitCode(t *testing.T) {
	fail := errors.New("boom")
	mixed := &exp.ResultSet{Experiments: []exp.ExperimentResult{
		{ID: "a", Status: exp.StatusOK}, {ID: "b", Status: exp.StatusFailed},
	}}
	allBad := &exp.ResultSet{Experiments: []exp.ExperimentResult{
		{ID: "a", Status: exp.StatusFailed}, {ID: "b", Status: exp.StatusFailed},
	}}
	cases := []struct {
		name string
		err  error
		rs   *exp.ResultSet
		want int
	}{
		{"green", nil, mixed, 0}, // no error => 0 regardless of set contents
		{"usage (nil set)", fail, nil, 2},
		{"partial failure", fail, mixed, 3},
		{"total failure", fail, allBad, 1},
		{"empty set failure", fail, &exp.ResultSet{}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCode(c.err, c.rs); got != c.want {
				t.Errorf("exitCode = %d, want %d", got, c.want)
			}
		})
	}
}
