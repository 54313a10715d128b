package quorum

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

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
// Shards are captured concurrently (each under its own lock); the
// resulting image is byte-identical to the unsharded layout. The caller
// fixes the WAL sequence the checkpoint covers before invoking this, so
// any mutation the capture races is also in the replayed suffix and
// re-applies idempotently.
func (n *Node) StateSnapshot() ([]byte, error) {
	type shardImage struct {
		keys   []string
		sets   map[string][]clock.SiblingEntry[record]
		minted map[string]uint64
	}
	images := make([]shardImage, len(n.shards))
	var wg sync.WaitGroup
	for i, sh := range n.shards {
		wg.Add(1)
		go func(i int, sh *nodeShard) {
			defer wg.Done()
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			pairs := sh.store.Scan("", "", 0)
			im := shardImage{
				sets:   make(map[string][]clock.SiblingEntry[record], len(pairs)),
				minted: make(map[string]uint64, len(sh.minted)),
			}
			for _, p := range pairs {
				im.keys = append(im.keys, p.Key)
				im.sets[p.Key] = decodeEntries(p.Version.Value)
			}
			for k, c := range sh.minted {
				im.minted[k] = c
			}
			images[i] = im
		}(i, sh)
	}
	wg.Wait()

	img := quorumImage{Minted: make(map[string]uint64)}
	for _, im := range images {
		img.Keys = append(img.Keys, im.keys...)
		for k, c := range im.minted {
			img.Minted[k] = c
		}
	}
	sort.Strings(img.Keys)
	for _, k := range img.Keys {
		img.Sets = append(img.Sets, images[n.router.Shard(k)].sets[k])
	}
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
		n.installEntries(0, key, img.Sets[i]...)
	}
	for k, c := range img.Minted {
		sh := n.shardFor(k)
		sh.mu.Lock()
		if c > sh.minted[k] {
			sh.minted[k] = c
		}
		sh.mu.Unlock()
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
