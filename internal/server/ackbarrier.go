package server

import (
	"sync/atomic"

	"repro/internal/transport"
)

// ackBarrier wraps the storage actor's Handler to enforce
// durable-before-ack without blocking the actor loop on fsyncs.
//
// Every protocol ack (a quorum replica's write response, a session
// server's swrite response) is an Env.Send made in the same handler
// invocation that called Persist. The barrier intercepts those sends:
// after each invocation it collects the invocation's WAL durability
// waits (durability.takePending) and, if there are any, parks the
// invocation's outgoing messages on a release queue instead of sending
// them. A release goroutine posts each batch once its records are on
// disk. The actor loop itself never waits — it moves on to the next
// message, appending more records behind the in-flight fsync, which is
// what forms WAL commit groups across concurrent client operations.
//
// Batches release strictly in invocation order. WAL sequence numbers
// are assigned in append order and commits are monotone, so the queue
// never waits out of order; ordering also means a non-persisting
// invocation's sends cannot overtake an earlier persisting one's. The
// fast path — nothing pending and the queue drained — sends inline, so
// reads and protocol chatter keep their direct-send latency.
type ackBarrier struct {
	inner transport.Handler
	dur   *durability
	post  func(to string, msg transport.Message)

	q      chan sendBatch
	queued atomic.Int64 // batches enqueued but not yet fully posted
	done   chan struct{}

	env deferEnv // reused across invocations (the actor loop is single-threaded)
}

type outMsg struct {
	to  string
	msg transport.Message
}

type sendBatch struct {
	sends []outMsg
	waits []<-chan error
}

// deferEnv captures a handler invocation's sends for the barrier while
// passing everything else straight through to the real Env.
type deferEnv struct {
	transport.Env
	sends []outMsg
}

func (e *deferEnv) Send(to string, msg transport.Message) {
	e.sends = append(e.sends, outMsg{to: to, msg: msg})
}

// newAckBarrier builds a barrier around inner and starts its release
// goroutine.
func newAckBarrier(inner transport.Handler, dur *durability, post func(to string, msg transport.Message)) *ackBarrier {
	b := &ackBarrier{
		inner: inner,
		dur:   dur,
		post:  post,
		q:     make(chan sendBatch, 1024),
		done:  make(chan struct{}),
	}
	go b.release()
	return b
}

func (b *ackBarrier) OnStart(env transport.Env) {
	b.env.Env, b.env.sends = env, b.env.sends[:0]
	b.inner.OnStart(&b.env)
	b.finish(env)
}

func (b *ackBarrier) OnMessage(env transport.Env, from string, msg transport.Message) {
	b.env.Env, b.env.sends = env, b.env.sends[:0]
	b.inner.OnMessage(&b.env, from, msg)
	b.finish(env)
}

func (b *ackBarrier) OnTimer(env transport.Env, tag any) {
	b.env.Env, b.env.sends = env, b.env.sends[:0]
	b.inner.OnTimer(&b.env, tag)
	b.finish(env)
}

// finish routes one finished invocation's sends: inline when nothing
// gates them and the queue is drained, else onto the release queue.
func (b *ackBarrier) finish(env transport.Env) {
	waits := b.dur.takePending()
	if len(waits) == 0 && b.queued.Load() == 0 {
		// queued can only grow on this goroutine, so a drained queue
		// stays drained for the duration of this fast path.
		for _, m := range b.env.sends {
			env.Send(m.to, m.msg)
		}
		return
	}
	batch := sendBatch{waits: waits}
	if len(b.env.sends) > 0 {
		batch.sends = append([]outMsg(nil), b.env.sends...)
	}
	b.queued.Add(1)
	b.q <- batch
}

// release drains the queue: wait out each batch's durability, then post
// its messages. Posting uses Runtime.Post, which is safe off the actor
// goroutine.
func (b *ackBarrier) release() {
	defer close(b.done)
	for batch := range b.q {
		b.dur.await(batch.waits)
		for _, m := range batch.sends {
			b.post(m.to, m.msg)
		}
		b.queued.Add(-1)
	}
}

// Close drains and stops the release goroutine. Call only after the
// transport is closed (no more handler invocations) and before the WAL
// closes (pending commits must still complete).
func (b *ackBarrier) Close() {
	close(b.q)
	<-b.done
}
