package quorum

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/transport"
	"repro/internal/wiretest"
)

// Codec pinning for every quorum wire type, stored sibling set and WAL
// record: the binary round trip must be exact and must agree with the
// gob codec (see internal/wiretest).

func genEntry(g *wiretest.Gen) clock.SiblingEntry[record] {
	return clock.SiblingEntry[record]{
		DVV:   g.DVV(),
		Value: record{Value: g.Bytes(), Deleted: g.Bool()},
	}
}

func genEntries(g *wiretest.Gen) []clock.SiblingEntry[record] {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]clock.SiblingEntry[record], 1+g.R.Intn(4))
	for i := range out {
		out[i] = genEntry(g)
	}
	return out
}

func genAEEntries(g *wiretest.Gen) []aeEntry {
	if g.R.Intn(4) == 0 {
		return nil
	}
	out := make([]aeEntry, 1+g.R.Intn(4))
	for i := range out {
		out[i] = aeEntry{Key: g.Str(), Entries: genEntries(g)}
	}
	return out
}

func genMsgs(g *wiretest.Gen) []transport.Message {
	return []transport.Message{
		clientPut{ID: g.Uint64(), Key: g.Str(), Value: g.Bytes(), Deleted: g.Bool(), Context: g.Vector()},
		clientGet{ID: g.Uint64(), Key: g.Str(), R: int(g.Int64())},
		putResp{ID: g.Uint64(), Context: g.Vector(), Err: g.Str(), Sloppy: g.Bool()},
		getResp{ID: g.Uint64(), Values: g.ByteSlices(), Context: g.Vector(), Err: g.Str(), Replicas: int(g.Int64())},
		replicaPut{ID: g.Uint64(), Key: g.Str(), Entry: genEntry(g), Hint: g.Str(), Repair: g.Bool()},
		replicaPutAck{ID: g.Uint64()},
		replicaGet{ID: g.Uint64(), Key: g.Str()},
		replicaGetResp{ID: g.Uint64(), Key: g.Str(), Entries: genEntries(g), NotReady: g.Bool()},
		handoffDeliver{Key: g.Str(), Entries: genEntries(g)},
		handoffAck{Key: g.Str()},
		resPing{Pad: g.Byte()},
		resPong{Pad: g.Byte()},
		aeReq{Leaves: g.Uint64s()},
		aeResp{Buckets: g.Ints(), Entries: genAEEntries(g)},
		aePush{Entries: genAEEntries(g)},
		transferReq{
			Seq: g.Uint64(), Idx: int(g.Int64()), Nonce: g.Uint64(),
			Start: g.Uint64(), End: g.Uint64(),
			CurHash: g.Uint64(), CurKey: g.Str(), Max: int(g.Int64()),
		},
		transferBatch{
			Seq: g.Uint64(), Idx: int(g.Int64()), Nonce: g.Uint64(),
			Entries: genAEEntries(g),
			CurHash: g.Uint64(), CurKey: g.Str(), Done: g.Bool(),
		},
		replicaNotOwner{ID: g.Uint64(), Seq: g.Uint64()},
		geoShip{Seq: g.Uint64(), Zone: g.Str(), HighTS: g.Int64(), Items: genAEEntries(g)},
		geoShipAck{Seq: g.Uint64()},
	}
}

func genRecords(g *wiretest.Gen) []walRecord {
	return []walRecord{
		{Entry: &entryRec{Key: g.Str(), Entry: genEntry(g)}},
		{Hint: &hintRec{Intended: g.Str(), Key: g.Str(), Entry: genEntry(g)}},
		{HintAck: &hintAckRec{Intended: g.Str(), Key: g.Str()}},
		{Mint: &mintRec{Key: g.Str(), Counter: g.Uint64()}},
		{TransferDone: &transferDoneRec{Seq: g.Uint64(), Idx: int(g.Int64()), Start: g.Uint64(), End: g.Uint64()}},
		{GeoAck: &geoAckRec{Peer: g.Str(), Seq: g.Uint64()}},
	}
}

// checkViaGob fails t unless v survives a gob round trip unchanged: the
// oracle the binary decodings below are compared against.
func checkViaGob[T any](t testing.TB, v T) {
	t.Helper()
	var buf bytes.Buffer
	var got T
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("gob round trip of %T:\n got  %#v\n want %#v", v, got, v)
	}
}

func checkAll(t testing.TB, seed int64) {
	g := wiretest.NewGen(seed)
	for _, m := range genMsgs(g) {
		wiretest.Check(t, m)
	}
	if es := genEntries(g); es != nil { // stored sets are never empty
		if got := decodeEntries(appendEntries(nil, es)); !reflect.DeepEqual(got, es) {
			t.Fatalf("stored sibling set round trip:\n got  %#v\n want %#v", got, es)
		}
		checkViaGob(t, es)
	}
	for _, r := range genRecords(g) {
		got, err := decodeRecord(appendRecord(nil, r))
		if err != nil {
			t.Fatalf("decode WAL record %#v: %v", r, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("WAL record round trip:\n got  %#v\n want %#v", got, r)
		}
		checkViaGob(t, r)
	}
}

func TestCodecGobAgreement(t *testing.T) {
	for seed := int64(0); seed < 256; seed++ {
		checkAll(t, seed)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkAll(t, seed) })
}

// FuzzReplayRecord feeds arbitrary bytes to WAL replay: anything that is
// not a record persistRecord wrote must come back as an error, never a
// panic, and every strict prefix of a valid record is such an input.
func FuzzReplayRecord(f *testing.F) {
	g := wiretest.NewGen(1)
	for _, r := range genRecords(g) {
		rec := appendRecord(nil, r)
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{recMagicSerial})
	f.Add([]byte{recMagicKeyed, 1, 2})
	f.Add([]byte{0x0c, 0xff, 0x81, 0x03}) // a bare gob stream header
	f.Fuzz(func(t *testing.T, rec []byte) {
		n := NewNode("a", Config{N: 3, R: 2, W: 2, Ring: []string{"a", "b", "c"}})
		err := n.ReplayRecord(rec)
		if err != nil {
			return
		}
		// Every field takes at least one byte and the record must be
		// consumed exactly, so no strict prefix of an accepted record
		// may be accepted.
		for i := 0; i < len(rec); i++ {
			if err := n.ReplayRecord(rec[:i]); err == nil {
				t.Fatalf("accepted the %d-byte prefix of a %d-byte record", i, len(rec))
			}
		}
	})
}
