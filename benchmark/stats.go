package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentileLadder is the fallback order of the percentile rule: a
// percentile is reported only when at least minBeyond samples lie beyond
// it; otherwise the next lower rung is used.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// pickPercentile returns the highest rung of the ladder that is <= want and
// has at least minBeyond of the n samples beyond it. The median is the
// floor: it is returned even when n is too small for any rung.
func pickPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentileOf returns the nearest-rank p-th percentile of sorted samples.
func percentileOf(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tail applies the percentile rule: it returns the value at the wanted
// percentile, or at the rung it had to fall back to, with a note that names
// the percentile used and the sample count.
func tail(samples []float64, want float64) (float64, string) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	used := pickPercentile(len(s), want)
	note := fmt.Sprintf("p%g, n=%d", used, len(s))
	if used != want {
		note = fmt.Sprintf("p%g used: n=%d has fewer than %d samples beyond p%g", used, len(s), minBeyond, want)
	}
	return percentileOf(s, used), note
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartileSpread is the contract's steadiness measure: the distance between
// the first and third quartile as a share of the median, with quartiles as
// Python's statistics.quantiles(values, n=4) (exclusive method) gives them.
// It needs at least two values.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med), true
}

// opTiming is one operation of an open-loop schedule.
type opTiming struct {
	due, started, finished time.Duration // offsets from the schedule start
}

// lateness is how long after its due time the generator could start the
// operation; a stall in one operation shows as lateness of the next ones.
func (o opTiming) lateness() time.Duration {
	if o.started > o.due {
		return o.started - o.due
	}
	return 0
}

// latency is timed from the due time, not the start, so the wait a stall
// imposes on later operations counts against them.
func (o opTiming) latency() time.Duration { return o.finished - o.due }

// simulateOpenLoop lays the given service times on a fixed-interval
// schedule served by one worker: operation i is due at i*interval and
// starts at its due time or when the previous one finishes, whichever is
// later.
func simulateOpenLoop(interval time.Duration, service []time.Duration) []opTiming {
	out := make([]opTiming, len(service))
	free := time.Duration(0)
	for i, s := range service {
		due := time.Duration(i) * interval
		start := due
		if free > start {
			start = free
		}
		free = start + s
		out[i] = opTiming{due: due, started: start, finished: free}
	}
	return out
}
