package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMerkleEqualAfterSameUpdates(t *testing.T) {
	a, b := NewMerkle(8), NewMerkle(8)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		a.Update(k, uint64(i))
		b.Update(k, uint64(i))
	}
	if a.RootHash() != b.RootHash() {
		t.Fatal("identical state, different roots")
	}
	if d := DiffLeaves(a, b); len(d) != 0 {
		t.Fatalf("identical state, diff = %v", d)
	}
}

func TestMerkleOrderIndependent(t *testing.T) {
	a, b := NewMerkle(8), NewMerkle(8)
	keys := []string{"x", "y", "z", "w"}
	for i, k := range keys {
		a.Update(k, uint64(i))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Update(keys[i], uint64(i))
	}
	if a.RootHash() != b.RootHash() {
		t.Fatal("XOR accumulation must be order independent")
	}
}

func TestMerkleDetectsDivergence(t *testing.T) {
	a, b := NewMerkle(8), NewMerkle(8)
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		a.Update(k, 1)
		b.Update(k, 1)
	}
	b.Update("key-7", 2) // version differs
	a.Update("only-a", 1)
	diff := DiffLeaves(a, b)
	if len(diff) == 0 {
		t.Fatal("divergence not detected")
	}
	// Both divergent keys' buckets must be reported.
	want := map[int]bool{a.Bucket("key-7"): true, a.Bucket("only-a"): true}
	got := map[int]bool{}
	for _, l := range diff {
		got[l] = true
	}
	for l := range want {
		if !got[l] {
			t.Fatalf("bucket %d missing from diff %v", l, diff)
		}
	}
}

func TestMerkleUpdateReplacesOldDigest(t *testing.T) {
	a, b := NewMerkle(8), NewMerkle(8)
	a.Update("k", 1)
	a.Update("k", 2)
	b.Update("k", 2)
	if a.RootHash() != b.RootHash() {
		t.Fatal("stale digest left behind after re-update")
	}
	// Same version re-update is a no-op.
	r := a.RootHash()
	a.Update("k", 2)
	if a.RootHash() != r {
		t.Fatal("idempotent update changed root")
	}
}

func TestMerkleRemove(t *testing.T) {
	a, b := NewMerkle(8), NewMerkle(8)
	a.Update("k", 1)
	a.Update("j", 1)
	a.Remove("k")
	b.Update("j", 1)
	if a.RootHash() != b.RootHash() {
		t.Fatal("remove did not cancel the key's contribution")
	}
	a.Remove("never-added") // must not panic or corrupt
	if a.RootHash() != b.RootHash() {
		t.Fatal("removing absent key corrupted tree")
	}
}

func TestMerkleEmptyTreesEqual(t *testing.T) {
	if NewMerkle(4).RootHash() != NewMerkle(4).RootHash() {
		t.Fatal("empty trees differ")
	}
}

func TestMerkleDepthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("depth mismatch did not panic")
		}
	}()
	DiffLeaves(NewMerkle(4), NewMerkle(5))
}

func TestMerkleBucketStable(t *testing.T) {
	m := NewMerkle(10)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		b1, b2 := m.Bucket(k), m.Bucket(k)
		if b1 != b2 || b1 < 0 || b1 >= m.Leaves() {
			t.Fatalf("bucket unstable or out of range: %d, %d", b1, b2)
		}
	}
}

// TestMerkleComparisonCostScalesWithDivergence checks the A2 ablation
// premise: comparing nearly identical trees costs far fewer hash
// comparisons than the number of keys.
func TestMerkleComparisonCostScalesWithDivergence(t *testing.T) {
	const keys = 10000
	a, b := NewMerkle(12), NewMerkle(12)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		v := r.Uint64()
		a.Update(k, v)
		b.Update(k, v)
	}
	b.Update("key-42", 999999)
	cost := HashesCompared(a, b)
	if cost > 3*12+1 { // one root-to-leaf path, allowing sibling probes
		t.Fatalf("comparison cost %d for single divergent key; want ≈ depth", cost)
	}
	if diff := DiffLeaves(a, b); len(diff) != 1 {
		t.Fatalf("diff = %v, want exactly one bucket", diff)
	}
}

// TestMerkleBucketIsTopBitsOfKeyHash pins the relation WAL record
// headers and LSM bloom filters rely on: KeyHash is the hash the tree
// buckets by, so a key's bucket is the top depth bits of KeyHash(key).
func TestMerkleBucketIsTopBitsOfKeyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, depth := range []int{1, 4, 10} {
		m := NewMerkle(depth)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%d-%d", i, rng.Intn(1<<20))
			if got, want := m.Bucket(key), int(KeyHash(key)>>(64-uint(depth))); got != want {
				t.Fatalf("depth=%d key=%q: bucket %d, want top bits of KeyHash %d", depth, key, got, want)
			}
		}
	}
}
