package quorum

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

// divergedReplicas sets up a W=1 write whose replication to the laggard
// replicas is suppressed by a partition during the write, returning the
// key and the replica set.
func writeWithLaggards(t *testing.T, h *harness, key string) []string {
	t.Helper()
	prefs := h.nodes[0].PreferenceList(key)
	// Partition every preference replica except the first away from the
	// coordinator side during the write.
	var isolated []string
	for _, p := range prefs[1:] {
		isolated = append(isolated, p)
	}
	rest := []string{"client"}
	for _, n := range h.c.Nodes() {
		if !contains(isolated, n) && n != "client" {
			rest = append(rest, n)
		}
	}
	h.c.At(0, func() {
		h.c.Partition(rest, isolated)
		h.client.Put(h.env, prefs[0], key, []byte("v"), func(pr PutResult) {
			if pr.Err != nil {
				t.Errorf("W=1 write failed: %v", pr.Err)
			}
		})
	})
	h.c.At(500*time.Millisecond, func() { h.c.Heal() })
	return prefs
}

func TestWithoutAntiEntropyUnreadKeysStayDivergent(t *testing.T) {
	h := newHarness(t, 5, Config{N: 3, R: 1, W: 1}, 31)
	prefs := writeWithLaggards(t, h, "cold-key")
	h.c.Run(30 * time.Second)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	divergent := 0
	for _, rep := range prefs {
		if len(byID[rep].LocalValues("cold-key")) == 0 {
			divergent++
		}
	}
	if divergent == 0 {
		t.Fatal("no replica stayed divergent; the laggard setup is broken")
	}
}

func TestAntiEntropyConvergesUnreadKeys(t *testing.T) {
	h := newHarness(t, 5, Config{
		N: 3, R: 1, W: 1,
		AntiEntropy: true, AntiEntropyInterval: 200 * time.Millisecond,
	}, 31)
	prefs := writeWithLaggards(t, h, "cold-key")
	h.c.Run(30 * time.Second)
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	for _, rep := range prefs {
		vals := byID[rep].LocalValues("cold-key")
		if len(vals) != 1 || string(vals[0]) != "v" {
			t.Fatalf("replica %s not converged by anti-entropy: %q", rep, vals)
		}
	}
	syncs := uint64(0)
	for _, n := range h.nodes {
		syncs += n.AESyncs
	}
	if syncs == 0 {
		t.Fatal("anti-entropy never completed a round")
	}
}

func TestAntiEntropyConvergesSiblingsBothWays(t *testing.T) {
	// Divergent concurrent siblings on different replicas must union via
	// the push-pull exchange, not just flow one way.
	h := newHarness(t, 5, Config{
		N: 3, R: 3, W: 3,
		AntiEntropy: true, AntiEntropyInterval: 100 * time.Millisecond,
	}, 33)
	c2 := NewClient("client2")
	h.c.AddNode("client2", c2)
	env2 := h.c.ClientEnv("client2")
	h.c.At(0, func() {
		h.client.PutBlind(h.env, h.anyNode(), "k", []byte("a"), nil)
		c2.PutBlind(env2, h.anyNode(), "k", []byte("b"), nil)
	})
	h.c.Run(10 * time.Second)
	prefs := h.nodes[0].PreferenceList("k")
	byID := map[string]*Node{}
	for _, n := range h.nodes {
		byID[n.id] = n
	}
	for _, rep := range prefs {
		vals := byID[rep].LocalValues("k")
		if len(vals) != 2 {
			t.Fatalf("replica %s has %d siblings, want both", rep, len(vals))
		}
	}
}

func TestAntiEntropyIgnoresKeysOutsidePreferenceList(t *testing.T) {
	// A malformed (or replayed) AE payload naming a key this node does
	// not replicate must not be stored.
	h := newHarness(t, 8, Config{N: 3, R: 1, W: 1, AntiEntropy: true}, 35)
	// Find a key and a node outside its preference list.
	key := ""
	var outsider *Node
	for i := 0; i < 100 && outsider == nil; i++ {
		k := fmt.Sprintf("probe-%d", i)
		prefs := h.nodes[0].PreferenceList(k)
		for _, n := range h.nodes {
			if !contains(prefs, n.id) {
				key = k
				outsider = n
				break
			}
		}
	}
	if outsider == nil {
		t.Fatal("could not find an outsider node")
	}
	evil := clock.SiblingEntry[record]{DVV: clock.NewDVV("attacker", nil), Value: record{Value: []byte("evil")}}
	outsider.applyAEEntries([]aeEntry{{Key: key, Entries: []clock.SiblingEntry[record]{evil}}})
	if len(outsider.LocalValues(key)) != 0 {
		t.Fatal("outsider stored a key it does not replicate")
	}
}

func TestAntiEntropyQuietWhenConverged(t *testing.T) {
	// After convergence, AE rounds must stop shipping entries (root
	// hashes match, so responders send nothing).
	h := newHarness(t, 3, Config{
		N: 3, R: 3, W: 3,
		AntiEntropy: true, AntiEntropyInterval: 100 * time.Millisecond,
	}, 37)
	h.c.At(0, func() {
		h.client.Put(h.env, h.anyNode(), "k", []byte("v"), nil)
	})
	h.c.Run(5 * time.Second)
	before := h.c.Stats().BytesDelivered
	h.c.Run(10 * time.Second)
	delta := h.c.Stats().BytesDelivered - before
	// Only aeReq leaf-hash exchanges (256 leaves × 8 bytes ≈ 2KB per
	// round, ~150 rounds) should flow; no entry payloads.
	perRound := float64(delta) / 150.0
	if perRound > 3000 {
		t.Fatalf("converged cluster still ships %.0f bytes/AE round; entries leaking", perRound)
	}
}
