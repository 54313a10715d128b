package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/wal"
)

// durableNode is what a protocol node must provide to be crash-safe:
// restore a checkpoint, replay journaled records past it, and serialize
// its state for the next checkpoint. gossip.Node, quorum.Node, and
// session.Server all implement it.
type durableNode interface {
	RestoreState(state []byte) error
	ReplayRecord(rec []byte) error
	StateSnapshot() ([]byte, error)
}

// durability owns a node's WAL: it journals the protocol's Persist
// callbacks, recovers state at boot, and runs the background
// checkpointer that bounds log growth.
type durability struct {
	log  *wal.Log
	dir  string
	logf func(format string, args ...any)

	mu         sync.Mutex
	ckptSeq    uint64
	replayed   uint64
	failures   uint64
	recovering bool

	// pending holds the durability waits of the appends journaled since
	// the last takePending. It is confined to the actor loop (persist
	// and takePending both run there), so it needs no lock.
	pending []<-chan error

	stop chan struct{}
	done chan struct{}
}

func openDurability(dir string, policy wal.SyncPolicy, logf func(string, ...any)) (*durability, error) {
	log, err := wal.Open(dir, wal.Options{Policy: policy})
	if err != nil {
		return nil, err
	}
	return &durability{log: log, dir: dir, logf: logf}, nil
}

// persist journals one protocol record. It is the Persist hook handed
// to the protocol config, and it runs on the node's actor loop — but
// it does NOT wait for the fsync. The record's durability wait lands
// in pending; the ack barrier (ackBarrier, or handleGossip for
// client-direct acks) holds the handler's outgoing acks until every
// pending wait resolves. Durable-before-ack still holds, yet the actor
// loop keeps processing during the disk wait — which is exactly what
// lets the WAL committer group many appends under one fsync. During
// recovery replay persist is a no-op (replay must not re-journal).
func (d *durability) persist(rec []byte) {
	if d.recovering {
		return
	}
	_, done, err := d.log.AppendAsync(rec)
	if err != nil {
		d.fail(err)
		return
	}
	if done != nil {
		d.pending = append(d.pending, done)
	}
}

// takePending returns and clears the durability waits accumulated by
// persist since the last take. Must run on the actor loop, right after
// the handler invocation whose acks they gate.
func (d *durability) takePending() []<-chan error {
	p := d.pending
	d.pending = nil
	return p
}

// await blocks until every wait resolves. Failures are counted and
// logged but do not block the ack — matching the synchronous path's
// semantics: the guarantee is void for those records and the metrics
// say so loudly.
func (d *durability) await(waits []<-chan error) {
	for _, w := range waits {
		if err := <-w; err != nil {
			d.fail(err)
		}
	}
}

// fail records one record whose durability guarantee is void.
func (d *durability) fail(err error) {
	d.mu.Lock()
	d.failures++
	d.mu.Unlock()
	if d.logf != nil {
		d.logf("wal append failed (write NOT durable): %v", err)
	}
}

// recover rebuilds node from disk: latest intact checkpoint, then the
// journaled record suffix, in log order. Must run before the node's
// actor starts.
func (d *durability) recover(node durableNode) error {
	d.recovering = true
	defer func() { d.recovering = false }()

	ckpt, state, found, err := wal.LatestSnapshot(d.dir)
	if err != nil {
		return err
	}
	if found {
		if err := node.RestoreState(state); err != nil {
			return fmt.Errorf("restore checkpoint @%d: %w", ckpt, err)
		}
		d.ckptSeq = ckpt
	}
	return d.log.Replay(ckpt+1, func(seq uint64, rec []byte) error {
		if err := node.ReplayRecord(rec); err != nil {
			return fmt.Errorf("replay wal record %d: %w", seq, err)
		}
		d.replayed++
		return nil
	})
}

// startCheckpointer periodically captures a state snapshot via capture
// (which must run StateSnapshot on the node's actor loop and return the
// WAL seq observed there), persists it, and truncates covered segments.
func (d *durability) startCheckpointer(interval time.Duration, capture func() (state []byte, seq uint64, ok bool)) {
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.checkpoint(capture)
			}
		}
	}()
}

func (d *durability) checkpoint(capture func() ([]byte, uint64, bool)) {
	state, seq, ok := capture()
	if !ok {
		return
	}
	if seq <= d.CheckpointSeq() {
		return // nothing new to cover
	}
	if err := wal.WriteSnapshot(d.dir, seq, state); err != nil {
		if d.logf != nil {
			d.logf("wal checkpoint @%d failed: %v", seq, err)
		}
		return
	}
	if err := d.log.TruncateThrough(seq); err != nil && d.logf != nil {
		d.logf("wal truncate through %d failed: %v", seq, err)
	}
	d.mu.Lock()
	if seq > d.ckptSeq {
		d.ckptSeq = seq
	}
	d.mu.Unlock()
}

// CheckpointSeq returns the WAL seq the latest checkpoint covers.
func (d *durability) CheckpointSeq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ckptSeq
}

// Replayed returns how many WAL records recovery replayed at boot.
func (d *durability) Replayed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replayed
}

// Failures returns how many persist calls failed to reach the log.
func (d *durability) Failures() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failures
}

// Close stops the checkpointer and closes the log. The caller must have
// stopped the actors first so no persist call races the close.
func (d *durability) Close() {
	if d.stop != nil {
		close(d.stop)
		<-d.done
	}
	if err := d.log.Close(); err != nil && d.logf != nil {
		d.logf("wal close: %v", err)
	}
}
