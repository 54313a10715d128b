package main

import (
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/server"
)

// recorder collects one phase's outcomes from concurrent operations.
type recorder struct {
	mu      sync.Mutex
	lat     [3]latencies // by opKind
	corrupt int          // reads naming a version never written
	reads   []read       // eventual-tier reads (geo-sla), for the staleness verdict
	lags    []time.Duration
	start   time.Time // phase start: samples carry offsets from it
	// doneAt holds the completion offsets of operations that succeeded
	// by the phase deadline (zero deadline: all of them), the closed
	// loop's capacity numerator.
	doneAt   []time.Duration
	deadline time.Time
	// closed marks a closed-loop phase: a put that finds its key's
	// previous put still in flight becomes a get of that key instead of
	// waiting, so a hot key's write chain cannot shrink the window.
	closed    bool
	converted int // puts turned into gets that way
}

func (r *recorder) attempted() int {
	n := 0
	for i := range r.lat {
		n += r.lat[i].attempted()
	}
	return n
}

func (r *recorder) failed() int {
	n := 0
	for i := range r.lat {
		n += r.lat[i].misses
	}
	return n
}

// loader issues the workload's operations over the cluster's client
// connections and books them in the ledger.
type loader struct {
	w     workload
	conns []*server.Client
	led   *ledger
	tr    *tracer // nil: untraced
}

// conn picks the connection for an operation. geo-sla writes through
// connection 0 (node0, the first zone) and reads through the others
// (the next zones), so eventual reads are served from a zone the write
// did not land in; elsewhere operations spread round-robin.
func (d *loader) conn(o op) *server.Client {
	if d.w.geo() && len(d.conns) > 1 {
		if o.kind == opPut {
			return d.conns[0]
		}
		return d.conns[1+o.id%(len(d.conns)-1)]
	}
	return d.conns[o.id%len(d.conns)]
}

// exec runs one operation and records its latency from due (the time it
// was due to be sent) to completion.
func (d *loader) exec(o op, due time.Time, rec *recorder) {
	c := d.conn(o)
	key := keyName(o.key)
	var (
		err  error
		rd   read
		isRd bool
	)
	var ver uint64
	if o.kind == opPut {
		if rec.closed {
			var ok bool
			if ver, ok = d.led.tryBeginPut(o.key); !ok {
				o.kind = opGet
				c = d.conn(o)
				rec.mu.Lock()
				rec.converted++
				rec.mu.Unlock()
			}
		} else {
			ver = d.led.beginPut(o.key)
		}
	}
	switch o.kind {
	case opPut:
		err = c.Put(key, encodeValue(o.key, ver, d.w.valueSize))
		d.led.endPut(o.key, ver, err == nil, time.Now())
	default:
		rd = read{key: o.key, ver: -1, sent: time.Now()}
		var v []byte
		var found bool
		if d.w.geo() {
			tier := geo.Tier{Kind: geo.Eventual}
			if o.kind == opStrongGet {
				tier = geo.Tier{Kind: geo.Strong}
			}
			v, found, _, rd.staleMs, err = c.GetSLA(key, tier)
		} else {
			v, found, err = c.Get(key)
		}
		if err == nil && found {
			ver, derr := decodeValue(o.key, v)
			if derr != nil || ver > d.led.issuedVer(o.key) {
				rec.mu.Lock()
				rec.corrupt++
				rec.mu.Unlock()
			} else {
				rd.ver = int64(ver)
			}
		}
		isRd = err == nil && d.w.geo() && o.kind == opGet
	}
	end := time.Now()
	if d.tr != nil {
		d.tr.record(0, 0, int64(o.id), "client."+o.kind.String(), due, end, err != nil)
	}
	rec.mu.Lock()
	at := due.Sub(rec.start)
	if err != nil {
		rec.lat[o.kind].miss(at)
	} else {
		rec.lat[o.kind].add(at, end.Sub(due))
		if rec.deadline.IsZero() || !end.After(rec.deadline) {
			rec.doneAt = append(rec.doneAt, end.Sub(rec.start))
		}
	}
	if isRd {
		rec.reads = append(rec.reads, rd)
	}
	rec.mu.Unlock()
}

// opSource hands out a shared operation stream to concurrent workers.
type opSource struct {
	mu sync.Mutex
	g  *opGen
}

func (s *opSource) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g.gen()
}

// closedLoop keeps workers operations outstanding for dur: each worker
// sends its next operation as soon as the previous one completes (see
// recorder.closed for puts on a key with a put in flight).
// Operations still in flight at the deadline finish but do not count
// toward the completed total.
func closedLoop(dur time.Duration, workers int, next func() op, exec func(o op, due time.Time, rec *recorder)) *recorder {
	start := time.Now()
	rec := &recorder{start: start, deadline: start.Add(dur), closed: true}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(rec.deadline) {
				exec(next(), time.Now(), rec)
			}
		}()
	}
	wg.Wait()
	return rec
}

// openLoop offers operations at a fixed rate for dur regardless of
// completions: operation i is due at start + i/rate, and its latency is
// timed from that due time, so a stall also charges the operations that
// queued behind it. How late the generator launched each operation is
// recorded as its lag. Past maxInflight outstanding operations a due
// operation is shed: attempted, and a miss.
func openLoop(dur time.Duration, rate float64, maxInflight int, next func() op, exec func(o op, due time.Time, rec *recorder)) *recorder {
	start := time.Now()
	rec := &recorder{start: start}
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur.Seconds() * rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := next()
		lag := time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			rec.mu.Lock()
			rec.lat[o.kind].miss(due.Sub(start))
			rec.lags = append(rec.lags, lag)
			rec.mu.Unlock()
			continue
		}
		rec.mu.Lock()
		rec.lags = append(rec.lags, lag)
		rec.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			exec(o, due, rec)
		}()
	}
	wg.Wait()
	return rec
}

// preload writes every key once through the closed-loop window, retrying
// a put until it is acked: the run starts with every key present.
func (d *loader) preload(workers int) {
	var mu sync.Mutex
	nextKey := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := nextKey
				nextKey++
				mu.Unlock()
				if k >= d.w.keys {
					return
				}
				c := d.conns[k%len(d.conns)]
				if d.w.geo() {
					c = d.conns[0]
				}
				for {
					ver := d.led.beginPut(k)
					err := c.Put(keyName(k), encodeValue(k, ver, d.w.valueSize))
					d.led.endPut(k, ver, err == nil, time.Now())
					if err == nil {
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
}

// checkAll reads every key's siblings through strong quorum reads and
// verifies the ledger's last acked put is among them. A key that fails
// is re-read for a while before it counts as lost: only a write that
// never reappears is lost.
func (d *loader) checkAll(workers int) (lost []lostWrite, reads int) {
	var mu sync.Mutex
	nextKey := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				k := nextKey
				nextKey++
				mu.Unlock()
				if k >= d.w.keys {
					return
				}
				var w lostWrite
				ok := false
				n := 0
				for try := 0; try < 20 && !ok; try++ {
					if try > 0 {
						time.Sleep(100 * time.Millisecond)
					}
					sibs, err := c.GetSiblings(keyName(k))
					n++
					w, ok = d.led.verify(k, sibs, err)
				}
				mu.Lock()
				reads += n
				if !ok {
					lost = append(lost, w)
				}
				mu.Unlock()
			}
		}(d.conns[i%len(d.conns)])
	}
	wg.Wait()
	return lost, reads
}
