package quorum

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Durability hooks. A quorum node's durable state is three maps: the
// per-key sibling sets, the per-key dot counters it has minted (they
// must survive a crash or reissued dots would collide), and the hinted
// handoff queues (a hint is an acked write whose only copy may be
// here). Each mutation journals one walRecord; coordination state
// (pending reads/writes, AE trees) is transient and rebuilt from
// traffic.
//
// Replay idempotence: entry installs dedup by dot inside Siblings.Add,
// hint stores dedup by dot in storeHint, hint acks and mints are
// monotone deletes/maxes.

// walRecord is one journaled mutation; exactly one field is set.
type walRecord struct {
	Entry        *entryRec
	Hint         *hintRec
	HintAck      *hintAckRec
	Mint         *mintRec
	TransferDone *transferDoneRec
	GeoAck       *geoAckRec
}

// entryRec installs one version into a key's sibling set.
type entryRec struct {
	Key   string
	Entry clock.SiblingEntry[record]
}

// hintRec queues one version for an unreachable intended replica.
type hintRec struct {
	Intended string
	Key      string
	Entry    clock.SiblingEntry[record]
}

// hintAckRec records the intended replica acknowledging a key's hints.
type hintAckRec struct {
	Intended string
	Key      string
}

// mintRec advances the node's issued-dot counter for a key.
type mintRec struct {
	Key     string
	Counter uint64
}

// transferDoneRec marks one inbound transfer range complete for a
// membership epoch, so a restarted node resumes catch-up from the next
// range instead of re-pulling finished arcs (the range bounds are
// recorded for the audit trail; resume matches on Seq+Idx, both sides
// of which derive deterministically from ring.DiffN).
type transferDoneRec struct {
	Seq        uint64
	Idx        int
	Start, End uint64
}

// Record layout. Every record is a one-byte magic, for key-addressed
// records the key's 64-bit hash (storage.KeyHash, checked against the
// decoded key on replay) and then the record itself: a uvarint tag
// naming the set field, followed by that field's members in the wire
// codec's layout.
const (
	recMagicKeyed  = 0xEC // [magic][8-byte LE key hash][tag][fields]
	recMagicSerial = 0xED // [magic][tag][fields]
)

// walRecord tags, one per field.
const (
	recEntry uint64 = 1 + iota
	recHint
	recHintAck
	recMint
	recTransferDone
	recGeoAck
)

// recordKey returns the key a record is about, or "" for records not
// tied to one key (transfer completions are epoch-, geo acks
// peer-scoped).
func (r walRecord) recordKey() (string, bool) {
	switch {
	case r.Entry != nil:
		return r.Entry.Key, true
	case r.Hint != nil:
		return r.Hint.Key, true
	case r.HintAck != nil:
		return r.HintAck.Key, true
	case r.Mint != nil:
		return r.Mint.Key, true
	}
	return "", false
}

// appendRecord frames and encodes r.
func appendRecord(dst []byte, r walRecord) []byte {
	if key, keyed := r.recordKey(); keyed {
		dst = append(dst, recMagicKeyed)
		dst = binary.LittleEndian.AppendUint64(dst, storage.KeyHash(key))
	} else {
		dst = append(dst, recMagicSerial)
	}
	switch {
	case r.Entry != nil:
		dst = wire.AppendUvarint(dst, recEntry)
		dst = wire.AppendString(dst, r.Entry.Key)
		return appendEntry(dst, r.Entry.Entry)
	case r.Hint != nil:
		dst = wire.AppendUvarint(dst, recHint)
		dst = wire.AppendString(dst, r.Hint.Intended)
		dst = wire.AppendString(dst, r.Hint.Key)
		return appendEntry(dst, r.Hint.Entry)
	case r.HintAck != nil:
		dst = wire.AppendUvarint(dst, recHintAck)
		dst = wire.AppendString(dst, r.HintAck.Intended)
		return wire.AppendString(dst, r.HintAck.Key)
	case r.Mint != nil:
		dst = wire.AppendUvarint(dst, recMint)
		dst = wire.AppendString(dst, r.Mint.Key)
		return wire.AppendUvarint(dst, r.Mint.Counter)
	case r.TransferDone != nil:
		t := r.TransferDone
		dst = wire.AppendUvarint(dst, recTransferDone)
		dst = wire.AppendUvarint(dst, t.Seq)
		dst = wire.AppendVarint(dst, int64(t.Idx))
		dst = wire.AppendUvarint(dst, t.Start)
		return wire.AppendUvarint(dst, t.End)
	case r.GeoAck != nil:
		dst = wire.AppendUvarint(dst, recGeoAck)
		dst = wire.AppendString(dst, r.GeoAck.Peer)
		return wire.AppendUvarint(dst, r.GeoAck.Seq)
	}
	panic("quorum: encode empty WAL record")
}

// decodeRecord is the inverse of appendRecord. It fails closed: a
// missing or inconsistent routing header, an unknown tag, a truncated
// field or trailing bytes is an error. Decoded byte fields alias rec.
func decodeRecord(rec []byte) (walRecord, error) {
	var hash uint64
	keyed := len(rec) >= 9 && rec[0] == recMagicKeyed
	switch {
	case keyed:
		hash, rec = binary.LittleEndian.Uint64(rec[1:9]), rec[9:]
	case len(rec) >= 1 && rec[0] == recMagicSerial:
		rec = rec[1:]
	default:
		return walRecord{}, errors.New("quorum: WAL record has no routing header")
	}
	rd := wire.NewReader(rec)
	var r walRecord
	switch rd.Uvarint() {
	case recEntry:
		r.Entry = &entryRec{Key: rd.String(), Entry: readEntry(rd)}
	case recHint:
		r.Hint = &hintRec{Intended: rd.String(), Key: rd.String(), Entry: readEntry(rd)}
	case recHintAck:
		r.HintAck = &hintAckRec{Intended: rd.String(), Key: rd.String()}
	case recMint:
		r.Mint = &mintRec{Key: rd.String(), Counter: rd.Uvarint()}
	case recTransferDone:
		r.TransferDone = &transferDoneRec{Seq: rd.Uvarint(), Idx: int(rd.Varint()), Start: rd.Uvarint(), End: rd.Uvarint()}
	case recGeoAck:
		r.GeoAck = &geoAckRec{Peer: rd.String(), Seq: rd.Uvarint()}
	default:
		if rd.Err() == nil {
			return walRecord{}, errors.New("quorum: unknown WAL record tag")
		}
	}
	if err := rd.Close(); err != nil {
		return walRecord{}, fmt.Errorf("quorum: decode WAL record: %w", err)
	}
	if key, k := r.recordKey(); k != keyed || (keyed && storage.KeyHash(key) != hash) {
		return walRecord{}, errors.New("quorum: WAL record routing header does not match its key")
	}
	return r, nil
}

// persistRecord journals one mutation.
func (n *Node) persistRecord(r walRecord) {
	if n.cfg.Persist != nil {
		n.cfg.Persist(appendRecord(nil, r))
	}
}

// installEntries merges versions into key's sibling set and journals
// the ones that changed it. This is the single install path shared by
// replica puts, handoff delivery, read repair, active anti-entropy,
// transfer, geo shipping, and WAL replay (which runs with journaling
// off).
//
// With anti-entropy on, the key's Merkle digest is refreshed from the
// set in hand, under the store lock so digests land in install order. An unchanged set refreshes too:
// that is a no-op in trees already holding the digest, and it is how a
// key enters the tree of a peer that joined after the key last changed.
func (n *Node) installEntries(key string, es ...clock.SiblingEntry[record]) {
	if len(es) == 0 {
		return
	}
	rs := n.rs
	rs.mu.Lock()
	before, existed := rs.stored(key)
	sib := &clock.Siblings[record]{}
	for _, e := range before {
		sib.Add(e.DVV, e.Value)
	}
	for _, e := range es {
		sib.Add(e.DVV, e.Value)
	}
	after := sib.Entries()
	changed := !existed || !sameEntries(before, after)
	if changed {
		rs.setSiblings(key, after)
	}
	n.noteKeyChanged(key, after)
	rs.mu.Unlock()
	if !changed || n.cfg.Persist == nil {
		return // duplicate or obsolete versions: nothing to journal
	}
	// A version dropped within this batch is covered by its successor.
	for _, e := range es {
		if hasDot(after, e.DVV.Dot) && !hasDot(before, e.DVV.Dot) {
			n.persistRecord(walRecord{Entry: &entryRec{Key: key, Entry: e}})
		}
	}
}

// ApplyVersion installs one replicated version of key — the write's dot
// and causal context, and its value — exactly as a replica applies a
// replicaPut: sibling-set merge, engine put, Merkle refresh, and a WAL
// record when journaling. Stage benchmarks drive replica apply through
// it.
func (n *Node) ApplyVersion(key string, dot clock.Dot, ctx clock.Vector, value []byte) {
	n.installEntries(key, clock.SiblingEntry[record]{DVV: clock.DVV{Dot: dot, Context: ctx}, Value: record{Value: value}})
}

// storeHint queues a version for intended, deduplicating by dot so
// retried RPCs and WAL replay keep the queue at-most-once. Reports
// whether the hint was new.
func (n *Node) storeHint(intended, key string, e clock.SiblingEntry[record]) bool {
	n.hintsMu.Lock()
	defer n.hintsMu.Unlock()
	if n.hints[intended] == nil {
		n.hints[intended] = make(map[string][]clock.SiblingEntry[record])
	}
	for _, have := range n.hints[intended][key] {
		if have.DVV.Dot == e.DVV.Dot {
			return false
		}
	}
	n.hints[intended][key] = append(n.hints[intended][key], e)
	return true
}

// dropHints discards the hints queued for intended under key (they were
// acknowledged delivered), reporting how many were dropped.
func (n *Node) dropHints(intended, key string) int {
	n.hintsMu.Lock()
	defer n.hintsMu.Unlock()
	keys, ok := n.hints[intended]
	if !ok {
		return 0
	}
	dropped := len(keys[key])
	delete(keys, key)
	if len(keys) == 0 {
		delete(n.hints, intended)
	}
	return dropped
}

// ReplayRecord re-applies one journaled mutation during crash recovery.
// Must run before the node starts exchanging messages, with journaling
// off (the server's Persist drops records while it recovers) so replay
// does not re-journal. Records replay one at a time, in journal order.
// Bytes that are not a record written by persistRecord are an error,
// never a panic. rec is not retained.
func (n *Node) ReplayRecord(rec []byte) error {
	r, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	switch {
	case r.Entry != nil:
		n.installEntries(r.Entry.Key, r.Entry.Entry)
	case r.Hint != nil:
		e := r.Hint.Entry
		e.Value.Value = bytes.Clone(e.Value.Value) // the hint queue retains it
		n.storeHint(r.Hint.Intended, r.Hint.Key, e)
	case r.HintAck != nil:
		n.dropHints(r.HintAck.Intended, r.HintAck.Key)
	case r.Mint != nil:
		n.restoreMinted(r.Mint.Key, r.Mint.Counter)
	case r.TransferDone != nil:
		n.markTransferDone(r.TransferDone.Seq, r.TransferDone.Idx)
	case r.GeoAck != nil:
		n.geoRestoreAck(r.GeoAck.Peer, r.GeoAck.Seq)
	}
	return nil
}
