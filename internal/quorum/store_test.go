package quorum

import (
	"bytes"
	"testing"

	"repro/internal/lsm"
	"repro/internal/storage"
)

// TestSingleShardMintsClassicSequence pins the request-id sequence a node
// mints for its replica RPCs: 1, 2, 3, ...
func TestSingleShardMintsClassicSequence(t *testing.T) {
	n := NewNode("s0", Config{Ring: []string{"s0", "s1", "s2"}, N: 3, R: 2, W: 2})
	for want := uint64(1); want <= 10; want++ {
		if id := n.mintReq(); id != want {
			t.Fatalf("mintReq = %d, want %d", id, want)
		}
	}
}

// TestStoredValueOwnership pins who owns the bytes of a stored sibling
// set, on both engines: installs encode into one reused scratch buffer
// (the engine's copy-on-store keeps earlier keys intact), and entries
// read back own their value bytes, so mutating them — or the buffer the
// installed entry came from — never changes what a later read returns.
func TestStoredValueOwnership(t *testing.T) {
	engines := map[string]func(t *testing.T) storage.Engine{
		"mem": func(*testing.T) storage.Engine { return storage.NewKV() },
		"lsm": func(t *testing.T) storage.Engine {
			e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	}
	for name, open := range engines {
		t.Run(name, func(t *testing.T) {
			n := NewNode("s0", Config{
				Ring: []string{"s0", "s1", "s2"}, N: 3, R: 2, W: 2,
				AntiEntropy: true,
				Storage:     func(int) storage.Engine { return open(t) },
			})
			defer n.Close()
			e := seedEntry(1, 16)
			n.installEntries("k1", e)
			n.installEntries("k2", seedEntry(2, 16))
			for i := range e.Value.Value {
				e.Value.Value[i] = 0xFF
			}
			got := n.localEntries("k1")
			if len(got) != 1 || !bytes.Equal(got[0].Value.Value, seedEntry(1, 16).Value.Value) {
				t.Fatalf("k1 after a second install and a caller mutation = %+v", got)
			}
			for i := range got[0].Value.Value {
				got[0].Value.Value[i] = 0xEE
			}
			again := n.localEntries("k1")
			if !bytes.Equal(again[0].Value.Value, seedEntry(1, 16).Value.Value) {
				t.Fatalf("mutating a read-back entry changed the stored value: %x", again[0].Value.Value)
			}
		})
	}
}
