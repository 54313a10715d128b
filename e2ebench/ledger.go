package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ack is one acknowledged put: the version written and when the client
// saw the acknowledgement.
type ack struct {
	ver uint64
	at  time.Time
}

// keyLedger is the benchmark's record of one key's writes. Puts on a key
// are serialized (the slot holds one token while a put is in flight), so
// versions are acked in increasing order and "the last acked put" is
// well defined.
type keyLedger struct {
	slot    chan struct{}
	issued  uint64 // highest version handed to a put
	acks    []ack  // ascending by version
	unknown uint64 // highest version whose put failed: it may or may not have landed
}

// ledger is the write ledger every correctness and staleness verdict is
// computed from; it never consults the server's own claims.
type ledger struct {
	mu   sync.Mutex
	keys []keyLedger
}

func newLedger(keys int) *ledger {
	l := &ledger{keys: make([]keyLedger, keys)}
	for i := range l.keys {
		l.keys[i].slot = make(chan struct{}, 1)
	}
	return l
}

// beginPut waits until no other put on key is in flight and returns the
// version the new put writes (versions start at 1). endPut must follow.
func (l *ledger) beginPut(key int) uint64 {
	l.keys[key].slot <- struct{}{}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys[key].issued++
	return l.keys[key].issued
}

// tryBeginPut is beginPut that gives up instead of waiting when a put
// on key is already in flight.
func (l *ledger) tryBeginPut(key int) (uint64, bool) {
	select {
	case l.keys[key].slot <- struct{}{}:
	default:
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys[key].issued++
	return l.keys[key].issued, true
}

// endPut records the put's outcome and frees the key for the next put.
func (l *ledger) endPut(key int, ver uint64, acked bool, at time.Time) {
	l.mu.Lock()
	k := &l.keys[key]
	if acked {
		k.acks = append(k.acks, ack{ver: ver, at: at})
	} else if ver > k.unknown {
		k.unknown = ver
	}
	l.mu.Unlock()
	<-k.slot
}

// issuedVer reports the highest version ever handed out for key.
func (l *ledger) issuedVer(key int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keys[key].issued
}

// read is one get as the client saw it: the version returned (-1 when
// the key was not found), when the request was sent, and the server's
// staleness stamp.
type read struct {
	key     int
	ver     int64
	sent    time.Time
	staleMs int64
}

// staleness is the verdict on a set of reads against the ledger.
type staleness struct {
	reads int
	stale int // returned a version older than one acked before the read was sent
	// underestimates counts stale reads whose staleness stamp was lower
	// than the staleness observed: the time since the first missed put
	// was acked, a lower bound on how far behind the replica was.
	underestimates int
}

func (s staleness) frac() float64 { return ratio(float64(s.stale), float64(s.reads)) }

func (s staleness) underestimateFrac() float64 {
	return ratio(float64(s.underestimates), float64(s.stale))
}

// judge classifies reads. Call it once the phase's puts have finished.
func (l *ledger) judge(reads []read) staleness {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s staleness
	for _, r := range reads {
		s.reads++
		acks := l.keys[r.key].acks
		// The first acked put newer than what the read returned.
		i := sort.Search(len(acks), func(i int) bool { return int64(acks[i].ver) > r.ver })
		if i == len(acks) || !acks[i].at.Before(r.sent) {
			continue
		}
		s.stale++
		observed := r.sent.Sub(acks[i].at)
		if time.Duration(r.staleMs)*time.Millisecond < observed {
			s.underestimates++
		}
	}
	return s
}

// lostWrite is a key whose last acked put is absent from the final read.
type lostWrite struct {
	key       int
	lastAcked uint64
	found     []uint64
	err       error
}

func (w lostWrite) String() string {
	if w.err != nil {
		return fmt.Sprintf("%s: last acked v%d, final read failed: %v", keyName(w.key), w.lastAcked, w.err)
	}
	return fmt.Sprintf("%s: last acked v%d, siblings %v", keyName(w.key), w.lastAcked, w.found)
}

// verify checks one key's final siblings: the last acked put must be
// among them, or superseded by a later put whose outcome is unknown. A
// key never acked passes trivially.
func (l *ledger) verify(key int, siblings [][]byte, readErr error) (lostWrite, bool) {
	l.mu.Lock()
	k := l.keys[key]
	l.mu.Unlock()
	if len(k.acks) == 0 {
		return lostWrite{}, true
	}
	last := k.acks[len(k.acks)-1].ver
	w := lostWrite{key: key, lastAcked: last, err: readErr}
	if readErr != nil {
		return w, false
	}
	for _, v := range siblings {
		ver, err := decodeValue(key, v)
		if err != nil {
			w.err = err
			return w, false
		}
		w.found = append(w.found, ver)
		if ver == last || (ver > last && ver <= k.unknown) {
			return w, true
		}
	}
	return w, false
}
