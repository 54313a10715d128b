package transport

import (
	"math/rand"
	"sync"
	"time"
)

// Loopback is the in-process transport: every node of a "cluster" is
// hosted on one Runtime, messages are delivered through mailboxes
// without touching a socket, and the link-fault surface of the
// simulator's nemesis (partitions, severed links, loss, latency,
// crashes) is available in real time. Every transport-level test — and
// the off-sim conformance suite — runs against Loopback, so protocol
// behaviour over the real actor runtime is provable without network
// flakiness in CI.
type Loopback struct {
	*Runtime

	mu      sync.Mutex
	blocked map[[2]string]bool
	groups  map[string]int
	part    bool
	loss    float64
	rng     *rand.Rand
	latLo   time.Duration
	latHi   time.Duration
	links   map[[2]string]time.Duration // per-link one-way delay overrides
	zoneOf  map[string]string           // node -> zone for class-based delay
	intra   time.Duration               // same-zone one-way delay
	cross   time.Duration               // cross-zone one-way delay
}

// LoopbackConfig shapes a loopback cluster.
type LoopbackConfig struct {
	// Seed drives node randomness, loss draws, and latency jitter.
	Seed int64
	// MinLatency/MaxLatency add a uniform artificial delay per delivery
	// (zero means immediate). A few milliseconds surfaces interleavings
	// that instant delivery hides.
	MinLatency, MaxLatency time.Duration
}

// NewLoopback returns an empty loopback transport.
func NewLoopback(cfg LoopbackConfig) *Loopback {
	l := &Loopback{
		Runtime: NewRuntime(cfg.Seed),
		blocked: make(map[[2]string]bool),
		groups:  make(map[string]int),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x10c4_10c4)),
		latLo:   cfg.MinLatency,
		latHi:   cfg.MaxLatency,
	}
	l.Runtime.cut = l.cutLink
	// Installed unconditionally: Runtime.send only defers delivery when
	// the hook returns d > 0, so an unconfigured link still dispatches
	// directly in send order — conformance seeds see identical
	// interleavings whether or not the hook is present.
	l.Runtime.delay = l.linkDelay
	return l
}

// cutLink decides whether a send is dropped: a partition between the
// endpoints' groups, an explicitly severed link, or a loss draw.
func (l *Loopback) cutLink(from, to string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.part && l.groups[from] != l.groups[to] {
		return true
	}
	if len(l.blocked) != 0 && l.blocked[[2]string{from, to}] {
		return true
	}
	return l.loss > 0 && l.rng.Float64() < l.loss
}

// linkDelay resolves the artificial one-way latency for a send, most
// specific first: an explicit per-link override, then the endpoints'
// zone class (intra- vs cross-zone), then the uniform jitter range.
// Zero means direct in-order dispatch.
func (l *Loopback) linkDelay(from, to string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.links) != 0 {
		if d, ok := l.links[[2]string{from, to}]; ok {
			return d
		}
	}
	if l.zoneOf != nil {
		if l.zoneOf[zoneKey(from)] == l.zoneOf[zoneKey(to)] {
			return l.intra
		}
		return l.cross
	}
	if l.latHi <= l.latLo {
		return l.latLo
	}
	return l.latLo + time.Duration(l.rng.Int63n(int64(l.latHi-l.latLo)))
}

// zoneKey maps a node id to the id that carries its zone: gateway and
// client actors ("node1#gw") ride their storage node's zone.
func zoneKey(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '#' {
			return id[:i]
		}
	}
	return id
}

// SetLinkLatency pins a one-way artificial delay on the directed link
// from -> to, overriding zone classes and the uniform range. A zero d
// makes the link instant; clear with ClearLinkLatency.
func (l *Loopback) SetLinkLatency(from, to string, d time.Duration) {
	l.mu.Lock()
	if l.links == nil {
		l.links = make(map[[2]string]time.Duration)
	}
	l.links[[2]string{from, to}] = d
	l.mu.Unlock()
}

// ClearLinkLatency removes the per-link override for from -> to.
func (l *Loopback) ClearLinkLatency(from, to string) {
	l.mu.Lock()
	delete(l.links, [2]string{from, to})
	l.mu.Unlock()
}

// SetZoneLatency declares latency classes over a node -> zone map:
// sends between same-zone nodes take intra one way, cross-zone sends
// take cross. Gateway ids ("node#gw") inherit their node's zone; ids
// absent from zones share the empty zone. Passing a nil map reverts to
// the uniform jitter range.
func (l *Loopback) SetZoneLatency(zones map[string]string, intra, cross time.Duration) {
	l.mu.Lock()
	if zones == nil {
		l.zoneOf = nil
	} else {
		l.zoneOf = make(map[string]string, len(zones))
		for id, z := range zones {
			l.zoneOf[id] = z
		}
	}
	l.intra, l.cross = intra, cross
	l.mu.Unlock()
}

// Partition splits the cluster into groups: sends between different
// groups drop until Heal. Ids not named join group 0. Gateway/client
// node ids sharing a storage node's prefix must be listed explicitly if
// they should follow it to a side.
func (l *Loopback) Partition(groups ...[]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.groups = make(map[string]int)
	l.part = false
	for gi, g := range groups {
		for _, id := range g {
			l.groups[id] = gi
			if gi != 0 {
				l.part = true
			}
		}
	}
}

// BlockLink severs the directed link from → to until UnblockLink/Heal.
func (l *Loopback) BlockLink(from, to string) {
	l.mu.Lock()
	l.blocked[[2]string{from, to}] = true
	l.mu.Unlock()
}

// UnblockLink restores the directed link from → to.
func (l *Loopback) UnblockLink(from, to string) {
	l.mu.Lock()
	delete(l.blocked, [2]string{from, to})
	l.mu.Unlock()
}

// SetLoss drops the given fraction of sends uniformly (0 disables).
func (l *Loopback) SetLoss(p float64) {
	l.mu.Lock()
	l.loss = p
	l.mu.Unlock()
}

// Heal removes all partitions, severed links, and loss.
func (l *Loopback) Heal() {
	l.mu.Lock()
	l.blocked = make(map[[2]string]bool)
	l.groups = make(map[string]int)
	l.part = false
	l.loss = 0
	l.mu.Unlock()
}

// Crash takes a node down: queued and future messages and timers are
// discarded until Restart. The handler keeps its in-memory state, like
// sim.Cluster.Crash.
func (l *Loopback) Crash(id string) { l.Runtime.crash(id) }

// Restart boots a crashed node; its OnStart runs again.
func (l *Loopback) Restart(id string) { l.Runtime.restart(id) }
