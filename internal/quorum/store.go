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

// replicaState is a node's replica state: its sibling sets and minted
// dot counters. The node's own handler runs on one serial actor loop,
// but the host reads this state off that loop (checkpoint capture, the
// metrics endpoint), so mu still guards it.
type replicaState struct {
	// mu guards store and minted. The engine is internally
	// synchronized, but mu still serializes the read-modify-write
	// install cycle around it.
	mu sync.RWMutex
	// store holds the sibling sets, one engine entry per key, the value
	// the entry list in the wire codec's binary layout (see
	// appendEntries). Which engine backs it — in-memory KV or
	// disk-resident LSM — is the host's choice via Config.Storage.
	store    storage.Engine
	installs int    // engine writes since the last version compaction
	buf      []byte // encode scratch for installs; engines copy on store
	minted   map[string]uint64
}

// compactEvery bounds how many engine writes the store accumulates
// before discarding superseded sibling-set versions. Engines are
// multi-version stores: every install writes a fresh version of the
// key, so without a periodic Compact the obsolete versions would pile
// up forever.
const compactEvery = 256

// entries returns a copy of key's sibling set, or nil. The copy owns its
// value bytes, so it stays valid past the unlock and callers may retain
// or hand it on. Caller holds rs.mu (read suffices).
func (rs *replicaState) entries(key string) []clock.SiblingEntry[record] {
	v, ok := rs.store.Get(key)
	if !ok {
		return nil
	}
	return decodeEntries(bytes.Clone(v.Value))
}

// stored returns key's sibling set as stored, or nil when absent. The
// value bytes alias engine memory, which is read-only: the result must
// not outlive the caller's hold on rs.mu. Rebuilding a Siblings from it
// via Add round-trips exactly: stored survivors are mutually concurrent,
// so no entry obsoletes another and insertion order is preserved.
func (rs *replicaState) stored(key string) ([]clock.SiblingEntry[record], bool) {
	v, ok := rs.store.Get(key)
	if !ok {
		return nil, false
	}
	return decodeEntries(v.Value), true
}

// setSiblings stores key's sibling set back into the engine and
// amortizes version garbage collection. Caller holds rs.mu for writing.
func (rs *replicaState) setSiblings(key string, es []clock.SiblingEntry[record]) {
	rs.buf = appendEntries(rs.buf[:0], es)
	rs.store.Put(key, rs.buf, nil)
	rs.installs++
	if rs.installs >= compactEvery {
		rs.installs = 0
		rs.store.Compact(rs.store.Seq())
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

// restoreMinted raises key's minted dot counter to at least c, for
// checkpoint restore and WAL replay.
func (n *Node) restoreMinted(key string, c uint64) {
	n.rs.mu.Lock()
	if c > n.rs.minted[key] {
		n.rs.minted[key] = c
	}
	n.rs.mu.Unlock()
}

// mintReq mints the next coordination request id: 1, 2, 3, ...
func (n *Node) mintReq() uint64 {
	n.nextReq++
	return n.nextReq
}

// ring returns the current membership list. Hosts call PreferenceList
// off-loop while SetMembers swaps the list, hence the atomic pointer
// rather than n.cfg.Ring.
func (n *Node) ring() []string {
	return *n.members.Load()
}

// answerReplicaGet serves a replica read.
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
