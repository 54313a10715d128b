package main

import (
	"math"
	"sort"
	"time"
)

// latencies collects one operation class's samples, each with the
// offset into its phase at which it was due. A failed, timed-out or shed
// operation is a miss: it counts as attempted and ranks above every
// completed sample, so it misses every percentile.
type latencies struct {
	ok     []time.Duration
	okAt   []time.Duration
	misses int
	missAt []time.Duration
}

func (l *latencies) add(at, d time.Duration) {
	l.ok = append(l.ok, d)
	l.okAt = append(l.okAt, at)
}

func (l *latencies) miss(at time.Duration) {
	l.misses++
	l.missAt = append(l.missAt, at)
}

func (l *latencies) attempted() int { return len(l.ok) + l.misses }

// window returns the samples due in [lo, hi).
func (l *latencies) window(lo, hi time.Duration) latencies {
	var w latencies
	for i, at := range l.okAt {
		if at >= lo && at < hi {
			w.add(at, l.ok[i])
		}
	}
	for _, at := range l.missAt {
		if at >= lo && at < hi {
			w.miss(at)
		}
	}
	return w
}

// Windowed percentiles: a phase's samples are split by due time into up
// to maxWindows equal windows, each holding enough samples that ten rank
// beyond the percentile, and the median of the windows' percentiles is
// reported. One window hit by a transient stall (a GC cycle, a burst
// from a neighbour on the host) then moves the result less than it
// would move the percentile of the pooled samples.
const maxWindows = 8

// windowedMs reports the windowed q-percentile in milliseconds over a
// phase of length span; see percentileMs for misses.
func (l *latencies) windowedMs(q float64, span, ceiling time.Duration) float64 {
	perWindow := int(math.Ceil(10 / (1 - q)))
	n := min(maxWindows, max(1, l.attempted()/perWindow))
	var xs []float64
	for i := 0; i < n; i++ {
		w := l.window(span*time.Duration(i)/time.Duration(n), span*time.Duration(i+1)/time.Duration(n))
		if i == n-1 {
			// The last window also takes anything due at or past span.
			w = l.window(span*time.Duration(i)/time.Duration(n), math.MaxInt64)
		}
		xs = append(xs, w.percentileMs(q, ceiling))
	}
	return median(xs)
}

// windowedRate is the median over n equal windows of [0, span) of the
// events per second at the given offsets: the closed loop's completions.
func windowedRate(at []time.Duration, span time.Duration, n int) float64 {
	counts := make([]float64, n)
	for _, a := range at {
		if a >= 0 && a < span {
			counts[int(int64(a)*int64(n)/int64(span))]++
		}
	}
	w := span.Seconds() / float64(n)
	for i := range counts {
		counts[i] /= w
	}
	return median(counts)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) with misses
// ranked last, and false when the rank falls on a miss (the percentile is
// unbounded) or there are no samples.
func (l *latencies) percentile(q float64) (time.Duration, bool) {
	n := l.attempted()
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.ok) {
		return 0, false
	}
	sorted := append([]time.Duration(nil), l.ok...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank], true
}

// percentileMs reports a percentile in milliseconds; a percentile that
// lands on a miss reports the miss ceiling (the client timeout), the
// least a user waited before giving up.
func (l *latencies) percentileMs(q float64, ceiling time.Duration) float64 {
	d, ok := l.percentile(q)
	if !ok {
		d = ceiling
	}
	return float64(d) / float64(time.Millisecond)
}

// median returns the middle of xs (mean of the middle pair for even
// lengths); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio divides, reading 0/0 (nothing happened) as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
