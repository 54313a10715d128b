package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// opKind is one client operation class.
type opKind uint8

const (
	opPut       opKind = iota
	opGet              // a quorum get; the eventual tier in geo-sla
	opStrongGet        // geo-sla only: a strong-tier get
)

func (k opKind) String() string {
	return [...]string{"put", "get", "strong_get"}[k]
}

// workload is one traffic mix against one cluster shape. Every field is
// fixed here; only the seed varies between runs.
type workload struct {
	name       string
	nodes      int
	zones      []string      // zone names; nodes spread round-robin (geo only)
	xzDelay    time.Duration // injected per-frame cross-zone delay
	lsm        bool          // durable: WAL with fsync=sync, LSM engine
	keys       int
	zipf       bool // Zipfian theta=0.99 over keys; uniform otherwise
	valueSize  int
	putFrac    float64
	strongFrac float64 // share of all ops that are strong-tier gets (geo)
	// rate is the open-loop offered load in ops/s: a fixed number, never
	// recomputed per run, so every run and every commit offers the same
	// load. On the gated workloads it is about 15% of capacity_ops_s on a
	// 2-core host, low enough that a host running a few times slower (a
	// busy neighbour, hypervisor steal) still does not queue the open loop.
	rate float64
}

func (w workload) geo() bool { return len(w.zones) > 0 }

var workloads = []workload{
	{
		name: "kv-mem", nodes: 3, keys: 1000, zipf: true, valueSize: 128,
		putFrac: 0.5, rate: 400,
	},
	{
		// Not gated (see the package comment). 8k keys of 1 KiB: 8 MiB
		// per replica fills each shard's 4 MiB memtable, so flushes and
		// SSTable reads happen. Not the 20k first planned: there
		// anti-entropy's gob decoding made one round's preload take ~85 s.
		name: "durable-lsm", nodes: 3, lsm: true, keys: 8000, valueSize: 1024,
		putFrac: 0.75, rate: 90,
	},
	{
		name: "geo-sla", nodes: 6, zones: []string{"us", "eu", "ap"}, xzDelay: 5 * time.Millisecond,
		keys: 1000, zipf: true, valueSize: 128, putFrac: 0.2, strongFrac: 0.16, rate: 300,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// zipfian draws ranks in [0, n) with P(i) proportional to 1/(i+1)^theta
// (Gray et al.'s generator, as in YCSB); math/rand's Zipf needs s > 1.
type zipfian struct {
	n                   float64
	theta, alpha, zetan float64
	eta, half           float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	i := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= int(z.n) {
		i = int(z.n) - 1
	}
	return i
}

// op is one generated client operation.
type op struct {
	id   int
	kind opKind
	key  int
}

// opGen yields the workload's operation stream; the same seed gives the
// same stream.
type opGen struct {
	w    workload
	r    *rand.Rand
	z    *zipfian
	next int
}

func newOpGen(w workload, seed int64) *opGen {
	g := &opGen{w: w, r: rand.New(rand.NewSource(seed))}
	if w.zipf {
		g.z = newZipfian(w.keys, 0.99)
	}
	return g
}

func (g *opGen) gen() op {
	o := op{id: g.next}
	g.next++
	if g.z != nil {
		o.key = g.z.next(g.r)
	} else {
		o.key = g.r.Intn(g.w.keys)
	}
	switch u := g.r.Float64(); {
	case u < g.w.putFrac:
		o.kind = opPut
	case u < g.w.putFrac+g.w.strongFrac:
		o.kind = opStrongGet
	default:
		o.kind = opGet
	}
	return o
}

func keyName(k int) string { return fmt.Sprintf("k%06d", k) }

// encodeValue builds a put's payload: "<key>@<version>|" padded to size,
// so every read names the write it returned.
func encodeValue(key int, version uint64, size int) []byte {
	v := make([]byte, 0, size)
	v = append(v, keyName(key)...)
	v = append(v, '@')
	v = strconv.AppendUint(v, version, 10)
	v = append(v, '|')
	for i := len(v); i < size; i++ {
		v = append(v, byte('a'+i%26))
	}
	return v
}

// decodeValue returns the version a payload carries and checks it was
// written for key.
func decodeValue(key int, v []byte) (uint64, error) {
	at := bytes.IndexByte(v, '@')
	bar := bytes.IndexByte(v, '|')
	if at < 0 || bar < at || string(v[:at]) != keyName(key) {
		return 0, fmt.Errorf("value %.40q is not a version of %s", v, keyName(key))
	}
	ver, err := strconv.ParseUint(string(v[at+1:bar]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("value %.40q: %w", v, err)
	}
	return ver, nil
}
