package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/lsm"
	"repro/internal/quorum"
	"repro/internal/resilience"
	"repro/internal/ring"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The layer replay drives the first replayOps operations of the run's
// stream through each layer's public functions directly, each call
// inside a span, so every layer gets a busy and a self time per
// operation that the live cluster run cannot separate.
const (
	replayOps     = 2000
	replayWALRecs = 200 // fsync=sync appends cost milliseconds each
	quorumTimeout = 2 * time.Second
)

// replayResult carries the per-layer numbers the spans alone do not.
type replayResult struct {
	quorumRetries  float64
	quorumFailed   int
	decodeAllocs   float64 // heap objects per DecodeFrame call
	walRecordBytes float64 // mean size of the journal records a put wrote
}

// replayOpsFor regenerates the head of the run's operation stream.
func replayOpsFor(w workload, seed int64) []op {
	g := newOpGen(w, seed)
	ops := make([]op, replayOps)
	for i := range ops {
		ops[i] = g.gen()
	}
	return ops
}

// replayFrames times transport.AppendFrame and DecodeFrame on each
// operation's client Request and the Response the server sends back.
func replayFrames(t *tracer, w workload, ops []op, res *replayResult) {
	var frames [][]byte
	for i, o := range ops {
		key := keyName(o.key)
		v := encodeValue(o.key, 1, w.valueSize)
		req := server.Request{Seq: uint64(i + 1), Op: "get", Key: key}
		resp := server.Response{Seq: uint64(i + 1), OK: true, Node: "node0"}
		switch o.kind {
		case opPut:
			req.Op, req.Value = "put", v
		default:
			if o.kind == opGet && w.geo() {
				req.SLA = uint8(geo.Eventual)
			}
			resp.Found, resp.Value, resp.Values = true, v, [][]byte{v}
		}
		for _, m := range []transport.Message{req, resp} {
			var b []byte
			env := transport.Envelope{From: "bench-0", Msg: m}
			t.timed(0, int64(o.id), "transport.encode", func() bool {
				var err error
				b, err = transport.AppendFrame(nil, env)
				return err == nil
			})
			t.timed(0, int64(o.id), "transport.decode", func() bool {
				_, _, err := transport.DecodeFrame(b)
				return err == nil
			})
			frames = append(frames, b)
		}
	}
	// Allocations are counted apart from the timed calls: reading the
	// heap counters per call would dominate what it measures.
	before := heapObjects()
	for _, b := range frames {
		transport.DecodeFrame(b)
	}
	res.decodeAllocs = ratio(heapObjects()-before, float64(len(frames)))
}

func heapObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// replayRing times Ring.Replicas for each operation's key on the
// workload's placement ring.
func replayRing(t *tracer, w workload, ops []op) {
	ids, zones := clusterShape(w)
	r := ring.NewZoned(ids, ring.DefaultVirtualNodes, zones)
	for _, o := range ops {
		key := keyName(o.key)
		t.timed(0, int64(o.id), "ring.replicas", func() bool { return len(r.Replicas(key, 3)) == 3 })
	}
}

// replayPick times the SLA picker's Pick for every get, as an
// eventual-tier client in the second zone would route it.
func replayPick(t *tracer, w workload, ops []op) {
	ids, zones := clusterShape(w)
	local := zones[ids[len(ids)/2]]
	p := geo.NewPicker(local, zones)
	for i, id := range ids {
		p.ObserveRTT(id, time.Duration(1+i)*time.Millisecond)
	}
	sla := geo.TierSLA(geo.Tier{Kind: geo.Eventual})
	for _, o := range ops {
		if o.kind == opPut {
			continue
		}
		t.timed(0, int64(o.id), "geo.pick", func() bool {
			n, _ := p.Pick(sla, ids)
			return n != ""
		})
	}
}

func clusterShape(w workload) ([]string, map[string]string) {
	ids := make([]string, w.nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	var zones map[string]string
	if w.geo() {
		zones = geo.AssignRoundRobin(ids, w.zones)
	}
	return ids, zones
}

// tracedEngine wraps a replica's storage engine so every call made on
// behalf of the replayed operation becomes a child span of it.
type tracedEngine struct {
	storage.Engine
	t      *tracer
	op     *atomic.Int64 // operation being replayed (0: none)
	parent *atomic.Int64 // its quorum span
}

func (e tracedEngine) span(name string, start time.Time) {
	if p := e.parent.Load(); p != 0 {
		e.t.record(0, p, e.op.Load(), name, start, time.Now(), false)
	}
}

func (e tracedEngine) Put(key string, value []byte, meta any) uint64 {
	start := time.Now()
	s := e.Engine.Put(key, value, meta)
	e.span("storage.put", start)
	return s
}

func (e tracedEngine) Get(key string) (storage.Version, bool) {
	start := time.Now()
	v, ok := e.Engine.Get(key)
	e.span("storage.get", start)
	return v, ok
}

func (e tracedEngine) GetAny(key string) (storage.Version, bool) {
	start := time.Now()
	v, ok := e.Engine.GetAny(key)
	e.span("storage.get", start)
	return v, ok
}

func (e tracedEngine) GetAt(key string, at uint64) (storage.Version, bool) {
	start := time.Now()
	v, ok := e.Engine.GetAt(key, at)
	e.span("storage.get", start)
	return v, ok
}

// replayQuorum runs the operations one at a time through a
// quorum.Client against three quorum nodes (N3/R2/W2, as the server
// configures them) on the in-process Loopback transport, with
// storage.KV replicas behind tracedEngine. It returns the journal
// records the puts produced, for the WAL replay.
func replayQuorum(t *tracer, w workload, seed int64, ops []op, res *replayResult) [][]byte {
	var curOp, curParent atomic.Int64
	var recMu sync.Mutex
	var recs [][]byte
	ids := []string{"r0", "r1", "r2"}
	lb := transport.NewLoopback(transport.LoopbackConfig{Seed: seed})
	defer lb.Close()
	var nodes []*quorum.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, id := range ids {
		n := quorum.NewNode(id, quorum.Config{
			Ring: ids, N: 3, R: 2, W: 2,
			ReadRepair: true, SloppyQuorum: true,
			Storage: func(int) storage.Engine {
				return tracedEngine{Engine: storage.NewKV(), t: t, op: &curOp, parent: &curParent}
			},
			Persist: func(rec []byte) {
				if curParent.Load() == 0 {
					return
				}
				recMu.Lock()
				recs = append(recs, append([]byte(nil), rec...))
				recMu.Unlock()
			},
		})
		nodes = append(nodes, n)
		lb.AddNode(id, n)
	}
	ctrs := resilience.NewCounters()
	cl := quorum.NewClient("rc")
	cl.Nodes, cl.Policy, cl.Counters = ids, resilience.DefaultPolicy(), ctrs
	lb.AddNode("rc", cl)

	// run issues one operation and waits for its callback.
	run := func(o op, traced bool) bool {
		key := keyName(o.key)
		coord := nodes[0].PreferenceList(key)[0]
		done := make(chan bool, 1)
		var id int64
		if traced {
			id = t.newID()
			curOp.Store(int64(o.id))
			curParent.Store(id)
		}
		start := time.Now()
		lb.Invoke("rc", func(env transport.Env) {
			if o.kind == opPut {
				cl.Put(env, coord, key, encodeValue(o.key, 2, w.valueSize), func(r quorum.PutResult) { done <- r.Err == nil })
			} else {
				cl.Get(env, coord, key, func(r quorum.GetResult) { done <- r.Err == nil })
			}
		})
		ok := false
		select {
		case ok = <-done:
		case <-time.After(quorumTimeout):
		}
		if traced {
			name := "quorum.get"
			if o.kind == opPut {
				name = "quorum.put"
			}
			t.record(id, 0, int64(o.id), name, start, time.Now(), !ok)
			curParent.Store(0)
		}
		return ok
	}
	// Preload the keys the replay touches, untraced, like the cluster's
	// preload: replayed gets find their key.
	seen := map[int]bool{}
	for _, o := range ops {
		if !seen[o.key] {
			seen[o.key] = true
			run(op{kind: opPut, key: o.key}, false)
		}
	}
	base := retries(lb, ctrs)
	for _, o := range ops {
		if !run(o, true) {
			res.quorumFailed++
		}
	}
	res.quorumRetries = float64(retries(lb, ctrs) - base)
	return recs
}

// retries reads the client's retry counter on its own loop, which is
// the only goroutine that writes it.
func retries(lb *transport.Loopback, ctrs *resilience.Counters) uint64 {
	got := make(chan uint64, 1)
	lb.Invoke("rc", func(transport.Env) { got <- ctrs.M.Get(resilience.CounterRetries) })
	return <-got
}

// replayLSM loads every key into an lsm.Engine (the server's options:
// default 4 MiB memtable, background compaction), flushes, then times
// the operations' puts and gets and a final flush of what they wrote.
func replayLSM(t *tracer, w workload, ops []op, dir string) error {
	e, err := lsm.Open(lsm.Options{Dir: filepath.Join(dir, "lsm"), Async: true})
	if err != nil {
		return err
	}
	defer e.Close()
	for k := 0; k < w.keys; k++ {
		e.Put(keyName(k), encodeValue(k, 1, w.valueSize), nil)
	}
	if err := e.Flush(); err != nil {
		return err
	}
	for _, o := range ops {
		key := keyName(o.key)
		if o.kind == opPut {
			v := encodeValue(o.key, 2, w.valueSize)
			t.timed(0, int64(o.id), "lsm.put", func() bool { e.Put(key, v, nil); return true })
		} else {
			t.timed(0, int64(o.id), "lsm.get", func() bool { _, ok := e.Get(key); return ok })
		}
	}
	var ferr error
	t.timed(0, 0, "lsm.flush", func() bool { ferr = e.Flush(); return ferr == nil })
	return ferr
}

// replayWAL appends the journal records the replayed puts produced to a
// fresh wal.Log under fsync=sync (the ecserver default), one at a time.
func replayWAL(t *tracer, recs [][]byte, dir string, res *replayResult) error {
	l, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncEach})
	if err != nil {
		return err
	}
	defer l.Close()
	if len(recs) > replayWALRecs {
		recs = recs[:replayWALRecs]
	}
	total := 0
	for i, rec := range recs {
		total += len(rec)
		t.timed(0, int64(i), "wal.append", func() bool { _, err := l.Append(rec); return err == nil })
	}
	res.walRecordBytes = ratio(float64(total), float64(len(recs)))
	return nil
}

// replayLayers runs every layer replay and returns the extra numbers.
func replayLayers(t *tracer, w workload, seed int64, dir string) (replayResult, error) {
	var res replayResult
	ops := replayOpsFor(w, seed)
	replayFrames(t, w, ops, &res)
	replayRing(t, w, ops)
	replayPick(t, w, ops)
	recs := replayQuorum(t, w, seed, ops, &res)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	if err := replayLSM(t, w, ops, dir); err != nil {
		return res, fmt.Errorf("lsm replay: %w", err)
	}
	if err := replayWAL(t, recs, dir, &res); err != nil {
		return res, fmt.Errorf("wal replay: %w", err)
	}
	return res, nil
}
