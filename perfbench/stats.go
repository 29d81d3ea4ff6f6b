package main

import (
	"math"
	"slices"
	"time"
)

// dist collects samples of one quantity. Percentiles report how many
// samples they rest on, so a p99 over 50 samples can be told apart from
// one over 5000.
type dist struct {
	vals []float64
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v) }

func (d *dist) addDur(v time.Duration, unit time.Duration) {
	d.add(float64(v) / float64(unit))
}

func (d *dist) n() int { return len(d.vals) }

// pct is one percentile reading: the value, the number of samples it was
// taken from, and how many samples lie strictly beyond its rank.
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p% of all samples at or below it.
// An empty distribution reads 0 with N = 0.
func (d *dist) percentile(p float64) pct {
	n := len(d.vals)
	if n == 0 {
		return pct{}
	}
	s := slices.Clone(d.vals)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return pct{Value: s[rank-1], N: n, Beyond: n - rank}
}

func (d *dist) p(p float64) float64 { return d.percentile(p).Value }

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// median of a small set of repeated measurements (set-up trials).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lateness is how far behind its fixed schedule an open-loop generator
// started an operation; starting early (never happens: the generator
// sleeps until due) or on time reads 0.
func lateness(due, started time.Time) time.Duration {
	if d := started.Sub(due); d > 0 {
		return d
	}
	return 0
}
