package main

import (
	"sync"
	"testing"
	"time"
)

// In the open loop a stalled request charges the requests queued behind
// it: latency runs from each request's due time, not from when it got
// through. Here every request must pass one serial resource, and the
// first holds it for 200ms while requests keep falling due every 10ms.
func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const (
		rate  = 100 // one due every 10ms
		stall = 200 * time.Millisecond
	)
	var serial sync.Mutex
	n := 0
	next := func() op { n++; return op{id: n - 1, kind: opGet} }
	exec := func(o op, due time.Time, rec *recorder) {
		serial.Lock()
		if o.id == 0 {
			time.Sleep(stall)
		}
		serial.Unlock()
		rec.mu.Lock()
		rec.lat[o.kind].add(due.Sub(rec.start), time.Since(due))
		rec.mu.Unlock()
	}
	rec := openLoop(500*time.Millisecond, rate, 1000, next, exec)
	l := rec.lat[opGet]
	if l.attempted() != 50 {
		t.Fatalf("attempted %d operations, want 50", l.attempted())
	}
	// Requests due during the stall waited for it: the one due at 100ms
	// completes no earlier than 200ms, so at least ~100ms from its due
	// time. Timed from send (after the wait) it would read near zero.
	slow := 0
	for _, d := range l.ok {
		if d >= 80*time.Millisecond {
			slow++
		}
	}
	if slow < 8 {
		t.Fatalf("only %d requests show the stall in their latency; due-time timing should charge ~10 (%v)", slow, l.ok)
	}
	if p50, _ := l.percentile(0.5); p50 > 50*time.Millisecond {
		t.Errorf("p50 %v: requests due after the stall should not wait", p50)
	}
	if len(rec.lags) != 50 {
		t.Errorf("recorded %d generator lags, want 50", len(rec.lags))
	}
}

// Past maxInflight outstanding requests a due request is shed: it is
// attempted and counted as a miss, never silently dropped.
func TestOpenLoopShedsAsMisses(t *testing.T) {
	release := make(chan struct{})
	n := 0
	next := func() op {
		n++
		if n == 20 {
			// Hold the first five until every request has been offered.
			go func() { time.Sleep(50 * time.Millisecond); close(release) }()
		}
		return op{id: n - 1, kind: opPut}
	}
	exec := func(o op, due time.Time, rec *recorder) {
		<-release
		rec.mu.Lock()
		rec.lat[o.kind].add(due.Sub(rec.start), time.Since(due))
		rec.mu.Unlock()
	}
	rec := openLoop(200*time.Millisecond, 100, 5, next, exec)
	l := rec.lat[opPut]
	if l.attempted() != 20 || l.misses != 15 {
		t.Fatalf("attempted %d with %d misses, want 20 with 15 shed", l.attempted(), l.misses)
	}
	if rec.failed() != 15 {
		t.Errorf("failed() = %d, want 15", rec.failed())
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := encodeValue(42, 7, 128)
	if len(v) != 128 {
		t.Fatalf("value length %d", len(v))
	}
	ver, err := decodeValue(42, v)
	if err != nil || ver != 7 {
		t.Fatalf("decode = %d, %v", ver, err)
	}
	if _, err := decodeValue(43, v); err == nil {
		t.Error("a value of k000042 decoded as k000043's")
	}
}

func TestZipfianSkew(t *testing.T) {
	g := newOpGen(workload{keys: 1000, zipf: true, putFrac: 0.5}, 1)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[g.gen().key]++
	}
	// theta=0.99 over 1000 keys puts ~13% of draws on the hottest key
	// and far fewer on a mid-ranked one.
	if counts[0] < 10000 || counts[0] > 16000 {
		t.Errorf("hottest key drew %d of 100000", counts[0])
	}
	if counts[500] > 200 {
		t.Errorf("rank-500 key drew %d of 100000", counts[500])
	}
	a, b := newOpGen(workloads[0], 9), newOpGen(workloads[0], 9)
	for i := 0; i < 100; i++ {
		if a.gen() != b.gen() {
			t.Fatal("the same seed gave different operation streams")
		}
	}
}
