package main

import (
	"testing"
	"time"
)

// A hand-built ledger: key 0 acked v1 at t0+0, v2 at t0+100ms, v3 at
// t0+200ms.
func handLedger(t0 time.Time) *ledger {
	l := newLedger(2)
	for i, at := range []time.Duration{0, 100, 200} {
		v := l.beginPut(0)
		if v != uint64(i+1) {
			panic("versions must start at 1 and rise")
		}
		l.endPut(0, v, true, t0.Add(at*time.Millisecond))
	}
	return l
}

func TestStaleReadFrac(t *testing.T) {
	t0 := time.Now()
	l := handLedger(t0)
	at := func(d time.Duration) time.Time { return t0.Add(d * time.Millisecond) }
	reads := []read{
		{key: 0, ver: 3, sent: at(250), staleMs: 0},   // fresh
		{key: 0, ver: 2, sent: at(150), staleMs: 0},   // fresh: v3 not yet acked
		{key: 0, ver: 2, sent: at(200), staleMs: 0},   // fresh: v3 acked at, not before, the send
		{key: 0, ver: 2, sent: at(260), staleMs: 100}, // stale by >= 60ms; stamp 100 covers it
		{key: 0, ver: 1, sent: at(260), staleMs: 100}, // stale by >= 160ms; stamp 100 underestimates
		{key: 0, ver: -1, sent: at(50), staleMs: -1},  // not found after v1 acked: stale, no stamp
		{key: 1, ver: -1, sent: at(50), staleMs: 0},   // never written: fresh
	}
	s := l.judge(reads)
	if s.reads != 7 || s.stale != 3 {
		t.Fatalf("judged %d reads, %d stale; want 7, 3", s.reads, s.stale)
	}
	if got, want := s.frac(), 3.0/7; got != want {
		t.Errorf("stale_read_frac = %v, want %v", got, want)
	}
	if s.underestimates != 2 {
		t.Errorf("underestimates = %d, want 2", s.underestimates)
	}
	if got := (staleness{}).frac(); got != 0 {
		t.Errorf("no reads: frac = %v", got)
	}
}

func TestVerifyLastAckedWrite(t *testing.T) {
	l := handLedger(time.Now())
	val := func(v uint64) []byte { return encodeValue(0, v, 32) }
	if _, ok := l.verify(0, [][]byte{val(3)}, nil); !ok {
		t.Error("the last acked version was reported lost")
	}
	if _, ok := l.verify(0, [][]byte{val(2), val(3)}, nil); !ok {
		t.Error("the last acked version among siblings was reported lost")
	}
	if w, ok := l.verify(0, [][]byte{val(2)}, nil); ok || w.lastAcked != 3 {
		t.Errorf("a read missing v3 passed (%v)", w)
	}
	// A later put whose outcome is unknown may supersede the last ack.
	v := l.beginPut(0)
	l.endPut(0, v, false, time.Now())
	if _, ok := l.verify(0, [][]byte{val(4)}, nil); !ok {
		t.Error("a failed-but-landed later put was reported as a lost write")
	}
	if _, ok := l.verify(0, [][]byte{val(5)}, nil); ok {
		t.Error("a version never issued passed")
	}
	if _, ok := l.verify(1, nil, nil); !ok {
		t.Error("a key never acked failed")
	}
	if _, ok := l.verify(0, [][]byte{[]byte("garbage")}, nil); ok {
		t.Error("an undecodable value passed")
	}
}
