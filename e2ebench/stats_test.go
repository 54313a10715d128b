package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- {
		l.add(0, ms(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, ms(50)}, {0.99, ms(99)}, {1, ms(100)}, {0.001, ms(1)}} {
		got, ok := l.percentile(c.q)
		if !ok || got != c.want {
			t.Errorf("percentile(%v) = %v, %v; want %v", c.q, got, ok, c.want)
		}
	}
}

// A failed, timed-out or shed operation counts as attempted and ranks
// above every completed sample: enough misses move the percentile onto
// a miss, which reports the timeout ceiling.
func TestPercentileCountsMissesAsAttempted(t *testing.T) {
	var l latencies
	for i := 1; i <= 98; i++ {
		l.add(0, ms(1))
	}
	l.miss(0)
	l.miss(0)
	if l.attempted() != 100 {
		t.Fatalf("attempted = %d, want 100", l.attempted())
	}
	if got, ok := l.percentile(0.98); !ok || got != ms(1) {
		t.Errorf("p98 = %v, %v; want 1ms", got, ok)
	}
	if _, ok := l.percentile(0.99); ok {
		t.Error("p99 landed on a completed sample; two misses in 100 must miss p99")
	}
	if got := l.percentileMs(0.99, 10*time.Second); got != 10000 {
		t.Errorf("p99 reported %vms, want the 10000ms ceiling", got)
	}
	if got := l.percentileMs(0.5, 10*time.Second); got != 1 {
		t.Errorf("p50 reported %vms, want 1", got)
	}
	var none latencies
	if _, ok := none.percentile(0.5); ok {
		t.Error("percentile of no samples reported a value")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// The windowed percentile is the median of per-window percentiles: one
// window of stalled requests does not set it.
func TestWindowedPercentile(t *testing.T) {
	var l latencies
	span := 4 * time.Second
	for i := 0; i < 4000; i++ {
		at := span * time.Duration(i) / 4000
		d := ms(1 + i%100) // each window: 1..100ms, p99 = 99ms
		if at >= 3*time.Second {
			d += time.Second // the last window stalled
		}
		l.add(at, d)
	}
	if got := l.windowedMs(0.99, span, 10*time.Second); got != 99 {
		t.Errorf("windowed p99 = %vms, want 99", got)
	}
	if got := l.percentileMs(0.99, 10*time.Second); got < 1000 {
		t.Errorf("pooled p99 = %vms: the stalled window should set it", got)
	}
	// Too few samples for ten beyond p99 in two windows: one window.
	var few latencies
	for i := 0; i < 1500; i++ {
		few.add(span*time.Duration(i)/1500, ms(1+i%100))
	}
	if got, want := few.windowedMs(0.99, span, time.Second), few.percentileMs(0.99, time.Second); got != want {
		t.Errorf("one-window p99 = %v, want the pooled %v", got, want)
	}
}

func TestWindowedRate(t *testing.T) {
	var at []time.Duration
	for i := 0; i < 100; i++ { // 100/s in [0,1s)
		at = append(at, time.Duration(i)*10*time.Millisecond)
	}
	for i := 0; i < 10; i++ { // a stalled second: 10/s
		at = append(at, time.Second+time.Duration(i)*100*time.Millisecond)
	}
	for i := 0; i < 120; i++ { // 120/s in [2s,3s)
		at = append(at, 2*time.Second+time.Duration(i)*8*time.Millisecond)
	}
	at = append(at, 3*time.Second) // past the span: not counted
	if got := windowedRate(at, 3*time.Second, 3); got != 100 {
		t.Errorf("windowedRate = %v, want the median 100", got)
	}
}
