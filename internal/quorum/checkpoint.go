package quorum

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/clock"
)

// Checkpoint images. A checkpoint is a whole-state image written rarely
// (when the server truncates its WAL), so it keeps the gob encoding; the
// per-mutation WAL records use the binary codec in persist.go.

// quorumImage is the checkpoint payload, keys sorted for deterministic
// iteration on restore.
type quorumImage struct {
	Keys      []string
	Sets      [][]clock.SiblingEntry[record]
	Minted    map[string]uint64
	Hints     []hintRec
	Transfers []transferDoneRec
	GeoAcks   []geoAckRec
}

// StateSnapshot serializes the node's durable state for a checkpoint.
// It runs off the actor loop, under the replica-state lock. The caller
// fixes the WAL sequence the checkpoint covers before invoking this, so
// any mutation the capture races is also in the replayed suffix and
// re-applies idempotently.
func (n *Node) StateSnapshot() ([]byte, error) {
	img := quorumImage{Minted: make(map[string]uint64)}
	n.rs.mu.RLock()
	for _, p := range n.rs.store.Scan("", "", 0) {
		img.Keys = append(img.Keys, p.Key)
		img.Sets = append(img.Sets, decodeEntries(p.Version.Value))
	}
	for k, c := range n.rs.minted {
		img.Minted[k] = c
	}
	n.rs.mu.RUnlock()
	n.hintsMu.Lock()
	intendeds := make([]string, 0, len(n.hints))
	for intended := range n.hints {
		intendeds = append(intendeds, intended)
	}
	sort.Strings(intendeds)
	for _, intended := range intendeds {
		keys := make([]string, 0, len(n.hints[intended]))
		for key := range n.hints[intended] {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			for _, e := range n.hints[intended][key] {
				img.Hints = append(img.Hints, hintRec{Intended: intended, Key: key, Entry: e})
			}
		}
	}
	n.hintsMu.Unlock()
	seqs := make([]uint64, 0, len(n.xferDone))
	for seq := range n.xferDone {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		idxs := make([]int, 0, len(n.xferDone[seq]))
		for idx := range n.xferDone[seq] {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			img.Transfers = append(img.Transfers, transferDoneRec{Seq: seq, Idx: idx})
		}
	}
	n.geoMu.Lock()
	geoPeers := make([]string, 0, len(n.geoPeers))
	for p := range n.geoPeers {
		geoPeers = append(geoPeers, p)
	}
	sort.Strings(geoPeers)
	for _, p := range geoPeers {
		if acked := n.geoPeers[p].acked; acked > 0 {
			img.GeoAcks = append(img.GeoAcks, geoAckRec{Peer: p, Seq: acked})
		}
	}
	n.geoMu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("quorum: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState loads a checkpoint written by StateSnapshot. Call before
// ReplayRecord replays the log suffix.
func (n *Node) RestoreState(state []byte) error {
	var img quorumImage
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&img); err != nil {
		return fmt.Errorf("quorum: decode snapshot: %w", err)
	}
	if len(img.Keys) != len(img.Sets) {
		return fmt.Errorf("quorum: malformed snapshot: %d keys, %d sets", len(img.Keys), len(img.Sets))
	}
	for i, key := range img.Keys {
		n.installEntries(key, img.Sets[i]...)
	}
	for k, c := range img.Minted {
		n.restoreMinted(k, c)
	}
	for _, h := range img.Hints {
		n.storeHint(h.Intended, h.Key, h.Entry)
	}
	for _, t := range img.Transfers {
		n.markTransferDone(t.Seq, t.Idx)
	}
	for _, g := range img.GeoAcks {
		n.geoRestoreAck(g.Peer, g.Seq)
	}
	return nil
}
