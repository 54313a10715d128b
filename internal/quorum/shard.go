package quorum

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Sharded execution. With Config.Shards = S > 1 the node's replica state
// splits into S key-range shards, each an independent execution domain:
// the hosting transport (which discovers the split through the
// ShardedHandler methods below) drains every shard on its own goroutine,
// so key-addressed traffic for disjoint shards executes concurrently on
// separate cores. Control traffic — membership, anti-entropy, handoff,
// transfer streaming — still runs on the serial actor loop, which is why
// the shared structures it touches (hints, Merkle trees, the elasticity
// window) carry their own locks while the per-request coordination maps
// stay lock-free (each is only ever touched by its shard's goroutine).
//
// Shard assignment reuses the Merkle tree's key hash, so a shard covers
// a contiguous range of Merkle buckets and a ring arc maps onto whole
// shards (see storage.ShardRouter). With S == 1 everything lands in
// shard 0 and the node behaves byte-for-byte as the unsharded original:
// request ids are identical (id = seq*S + shard), no extra goroutines
// exist, and the read fast path stays disabled.

// nodeShard is one shard of a node's replica state.
type nodeShard struct {
	// mu guards store and minted: the owning shard goroutine mutates
	// them on the write path while the serial loop reads and writes them
	// for anti-entropy, handoff, transfer streaming, and snapshots. The
	// engine is internally synchronized, but mu still serializes the
	// read-modify-write install cycle around it.
	mu sync.RWMutex
	// store holds the shard's sibling sets, one engine entry per key,
	// the value the entry list in the wire codec's binary layout (see
	// appendEntries). Which engine backs it — in-memory KV or
	// disk-resident LSM — is the host's choice via Config.Storage.
	store    storage.Engine
	installs int    // engine writes since the last version compaction
	buf      []byte // encode scratch for installs; engines copy on store
	minted   map[string]uint64

	// Coordination state is executor-confined: only the shard's own
	// goroutine (or the serial loop when dispatch is unsharded) touches
	// it, because request ids are minted congruent to the shard index and
	// acks/responses/timers route back by id. No lock needed.
	nextReq uint64
	writes  map[uint64]*pendingWrite
	reads   map[uint64]*pendingRead
	// repairs holds completed reads still awaiting late replica
	// responses for background read repair.
	repairs map[uint64]*repairState
}

func newNodeShard(store storage.Engine) *nodeShard {
	return &nodeShard{
		store:   store,
		minted:  make(map[string]uint64),
		writes:  make(map[uint64]*pendingWrite),
		reads:   make(map[uint64]*pendingRead),
		repairs: make(map[uint64]*repairState),
	}
}

// compactEvery bounds how many engine writes a shard accumulates before
// discarding superseded sibling-set versions. Engines are multi-version
// stores: every install writes a fresh version of the key, so without a
// periodic Compact the obsolete versions would pile up forever (the
// in-place map the shard used to hold had no such debt).
const compactEvery = 256

// entries returns a copy of key's sibling set, or nil. The copy owns its
// value bytes, so it stays valid past the unlock and callers may retain
// or hand it on. Caller holds sh.mu (read suffices).
func (sh *nodeShard) entries(key string) []clock.SiblingEntry[record] {
	v, ok := sh.store.Get(key)
	if !ok {
		return nil
	}
	return decodeEntries(bytes.Clone(v.Value))
}

// stored returns key's sibling set as stored, or nil when absent. The
// value bytes alias engine memory, which is read-only: the result must
// not outlive the caller's hold on sh.mu. Rebuilding a Siblings from it
// via Add round-trips exactly: stored survivors are mutually concurrent,
// so no entry obsoletes another and insertion order is preserved.
func (sh *nodeShard) stored(key string) ([]clock.SiblingEntry[record], bool) {
	v, ok := sh.store.Get(key)
	if !ok {
		return nil, false
	}
	return decodeEntries(v.Value), true
}

// setSiblings stores key's sibling set back into the engine and
// amortizes version garbage collection. Caller holds sh.mu for writing.
func (sh *nodeShard) setSiblings(key string, es []clock.SiblingEntry[record]) {
	sh.buf = appendEntries(sh.buf[:0], es)
	sh.store.Put(key, sh.buf, nil)
	sh.installs++
	if sh.installs >= compactEvery {
		sh.installs = 0
		sh.store.Compact(sh.store.Seq())
	}
}

// decodeEntries reads a stored sibling set; the entries' value bytes
// alias b. The bytes come from our own engine (CRC-verified on the disk
// path), so failure is a programming error, not an input error.
func decodeEntries(b []byte) []clock.SiblingEntry[record] {
	r := wire.NewReader(b)
	es := readEntries(r)
	if err := r.Close(); err != nil {
		panic(fmt.Sprintf("quorum: decode sibling set: %v", err))
	}
	return es
}

// shardFor returns the shard owning key.
func (n *Node) shardFor(key string) *nodeShard {
	return n.shards[n.router.Shard(key)]
}

// reqShard returns the shard that coordinates request id. Ids are minted
// as seq*S + shard, so the residue recovers the owner.
func (n *Node) reqShard(id uint64) *nodeShard {
	return n.shards[int(id%uint64(len(n.shards)))]
}

// mintReq mints a coordination request id on shard idx. Ids from
// different shards never collide (distinct residues mod S) and the
// responses they tag route straight back to the minting shard's
// executor. With S == 1 this degenerates to the classic 1, 2, 3, ...
func (n *Node) mintReq(idx int) uint64 {
	sh := n.shards[idx]
	sh.nextReq++
	return sh.nextReq*uint64(len(n.shards)) + uint64(idx)
}

// execDomain reports which durability domain the current invocation runs
// on: 1+shard for a shard-goroutine invocation, 0 for the serial loop
// (and for every host that does not implement the transport's ShardEnv).
// The server's WAL barrier keys pending-fsync accounting by this domain.
func execDomain(env sim.Env) int {
	if se, ok := env.(interface{ Shard() int }); ok {
		if k := se.Shard(); k >= 0 {
			return k + 1
		}
	}
	return 0
}

// ring returns the current membership list. Reads may come from shard
// goroutines while SetMembers swaps the list on the serial loop, hence
// the atomic pointer rather than n.cfg.Ring.
func (n *Node) ring() []string {
	return *n.members.Load()
}

// Shards implements transport.ShardedHandler (structurally): the number
// of concurrent execution domains this node wants. Values < 2 keep the
// classic single-loop dispatch.
func (n *Node) Shards() int { return len(n.shards) }

// ShardOf implements transport.ShardedHandler: key-addressed requests go
// to the key's shard, responses go back to the shard that minted the
// request id, and everything else (-1) keeps the serial actor loop.
func (n *Node) ShardOf(msg sim.Message) int {
	s := uint64(len(n.shards))
	switch m := msg.(type) {
	case clientPut:
		return n.router.Shard(m.Key)
	case clientGet:
		return n.router.Shard(m.Key)
	case replicaPut:
		return n.router.Shard(m.Key)
	case replicaGet:
		return n.router.Shard(m.Key)
	case replicaPutAck:
		return int(m.ID % s)
	case replicaGetResp:
		return int(m.ID % s)
	default:
		return -1
	}
}

// FastHandle implements transport.FastHandler: a replicaGet touches only
// lock-guarded state (sibling sets, hints, the gating window), so it can
// be answered synchronously on the delivering goroutine without queueing
// through any mailbox. Every other message — and every replicaGet when
// the node is unsharded — falls back to normal dispatch.
func (n *Node) FastHandle(env sim.Env, from string, msg sim.Message) bool {
	if len(n.shards) < 2 {
		return false
	}
	m, ok := msg.(replicaGet)
	if !ok {
		return false
	}
	n.answerReplicaGet(env, from, m)
	return true
}

// answerReplicaGet serves a replica read. Called from the owning shard's
// goroutine, from the serial loop (sim hosting), or from the transport's
// fast path; every structure it reads is safe under concurrent mutation.
func (n *Node) answerReplicaGet(env sim.Env, from string, m replicaGet) {
	if n.gatedKey(m.Key) {
		// This replica is still pulling the key's arc: answering from
		// a partial copy could serve a gap. NotReady tells the
		// coordinator to count someone else — the old owners are in
		// the new ring's fallback walk.
		n.Transfer.GatedReads.Add(1)
		env.Send(from, replicaGetResp{ID: m.ID, Key: m.Key, NotReady: true})
		return
	}
	entries := n.localEntries(m.Key)
	if n.cfg.Resilience != nil {
		// A fallback replica answers with the hinted writes it holds
		// too — during a partition they are the freshest (often only)
		// copies reachable from this side.
		entries = append(entries, n.hintedEntries(m.Key)...)
	}
	env.Send(from, replicaGetResp{ID: m.ID, Key: m.Key, Entries: entries})
}

// Router exposes the node's key→shard mapping (the same hash the Merkle
// trees bucket by), letting the host route WAL replay and report
// per-shard state.
func (n *Node) Router() storage.ShardRouter { return n.router }
