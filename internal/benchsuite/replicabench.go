package benchsuite

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/quorum"
)

// replicaApply measures the replica-apply stage on its own: one version
// installed on a quorum node backed by the in-memory engine with
// anti-entropy on — the key's stored sibling set decoded, merged and
// re-encoded, the engine put, and the key's digest refreshed in both
// peer Merkle trees. Each write's context covers the key's previous
// dot, so every set stays at one 128-byte sibling, as under a
// read-modify-write workload over 1000 keys (all stored before timing
// starts, so short runs measure the same steady state).
func replicaApply(b *testing.B) {
	const keys = 1000
	n := quorum.NewNode("n0", quorum.Config{
		Ring: []string{"n0", "n1", "n2"}, N: 3, R: 2, W: 2,
		AntiEntropy: true,
	})
	defer n.Close()
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%d", i)
	}
	value := make([]byte, 128)
	var ctx clock.Vector
	apply := func(i int) {
		round := uint64(i/keys) + 1
		if i%keys == 0 {
			ctx = clock.Vector{"n1": round - 1}
		}
		n.ApplyVersion(names[i%keys], clock.Dot{Node: "n1", Counter: round}, ctx, value)
	}
	for i := 0; i < keys; i++ {
		apply(i) // every timed install replaces a stored version
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := keys; i < keys+b.N; i++ {
		apply(i)
	}
}
