package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it; with fewer, the "tail" is a handful of outliers
// rather than a measurement.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses (ok false) when fewer than minBeyond samples lie above it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count), or 0 for no samples. Unlike percentile it needs
// no samples beyond it: a run reports the median of however many
// operations it completed, and states the count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a closed span of time on the run's clock.
type interval struct{ start, end time.Duration }

// selfTime is p's duration minus the part of it that the union of its
// children covers. Children may overlap one another and may spill
// past p; only their overlap with p counts, and overlapping parts
// count once.
func selfTime(p interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, p.start), min(c.end, p.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return p.end - p.start - covered
}

// deriveSeed maps the benchmark's seed argument and an index to a
// simulation seed (splitmix64), kept short and non-zero because seed 0
// means "the default seed" to the simulator and the job API refuses it.
func deriveSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%1_000_000 + 1
}
