package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/server"
)

// clientTimeout bounds one client round trip; a request that exceeds it
// is a miss.
const clientTimeout = 10 * time.Second

// cluster is an in-process ecstore cluster on loopback TCP and the
// benchmark's client connections to it.
type cluster struct {
	w     workload
	ids   []string
	peers map[string]string
	zones map[string]string
	srvs  []*server.Server
	conns []*server.Client
	dir   string
}

// startCluster boots the workload's cluster and dials nconns client
// connections, connection i to node i mod cluster size.
func startCluster(w workload, seed int64, dir string, nconns int) (*cluster, error) {
	c := &cluster{w: w, dir: dir, peers: map[string]string{}}
	addrs, err := reserveAddrs(w.nodes)
	if err != nil {
		return nil, err
	}
	for i, a := range addrs {
		id := fmt.Sprintf("node%d", i)
		c.ids = append(c.ids, id)
		c.peers[id] = a
	}
	if w.geo() {
		c.zones = geo.AssignRoundRobin(c.ids, w.zones)
	}
	for i, id := range c.ids {
		cfg := server.Config{
			ID:         id,
			Model:      "quorum",
			Peers:      c.peers,
			ListenHTTP: "127.0.0.1:0",
			Seed:       seed*100 + int64(i),
		}
		if w.lsm {
			cfg.DataDir = filepath.Join(dir, id)
			cfg.Engine = "lsm"
		}
		if w.geo() {
			cfg.Zone, cfg.Zones = c.zones[id], c.zones
			cfg.GeoAsync, cfg.XZoneDelay = true, w.xzDelay
		}
		s, err := server.New(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.srvs = append(c.srvs, s)
	}
	for i := 0; i < nconns; i++ {
		cl, err := server.Dial(c.srvs[i%len(c.srvs)].Addr(), fmt.Sprintf("bench-%d", i))
		if err != nil {
			c.close()
			return nil, err
		}
		cl.Timeout = clientTimeout
		c.conns = append(c.conns, cl)
	}
	for _, cl := range c.conns {
		if _, _, err := cl.Status(); err != nil {
			c.close()
			return nil, fmt.Errorf("cluster not ready: %w", err)
		}
	}
	return c, nil
}

func (c *cluster) close() {
	for _, cl := range c.conns {
		cl.Close()
	}
	var wg sync.WaitGroup
	for _, s := range c.srvs {
		wg.Add(1)
		go func(s *server.Server) {
			defer wg.Done()
			s.Close()
		}(s)
	}
	wg.Wait()
	httpClient.CloseIdleConnections()
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// scrapeAll reads every node's /metrics, in node order.
func (c *cluster) scrapeAll() (scrapes, error) {
	out := make(scrapes, len(c.srvs))
	for i, s := range c.srvs {
		m, err := scrape(s.HTTPAddr())
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// sentBytes is the cluster's peer-link byte counter.
func (c *cluster) sentBytes() (float64, error) {
	ss, err := c.scrapeAll()
	if err != nil {
		return 0, err
	}
	return ss.sum("ec_transport_bytes_sent_total"), nil
}

// byteRate measures the cluster's peer-link send rate over window.
func (c *cluster) byteRate(window time.Duration) (float64, error) {
	b0, err := c.sentBytes()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	time.Sleep(window)
	b1, err := c.sentBytes()
	if err != nil {
		return 0, err
	}
	return (b1 - b0) / time.Since(t0).Seconds(), nil
}

// Settling: after preload the cluster is still shipping the backlog
// (anti-entropy repair, cross-zone replication, WAL checkpoints). It is
// settled once its peer-link send rate is back near the idle level
// measured right after boot, when only heartbeats and empty
// anti-entropy rounds flow. A loaded idle cluster sends somewhat more
// than an empty one (its anti-entropy and replication beacons carry
// more), hence the factor.
const (
	bootGrace     = 300 * time.Millisecond // links connect and heartbeats start
	idleWindow    = 700 * time.Millisecond
	settleWindow  = 500 * time.Millisecond
	settleTimeout = 60 * time.Second
	settleFactor  = 2
	settleSlack   = 8 << 10 // bytes/s: absorbs jitter in a near-zero idle rate
)

// idleRate waits out the boot grace and measures the empty cluster's
// heartbeat-level send rate.
func (c *cluster) idleRate() (float64, error) {
	time.Sleep(bootGrace)
	return c.byteRate(idleWindow)
}

// settle waits for the send rate to fall to idleRate's level and returns
// the last measured rate.
func (c *cluster) settle(idleRate float64) (float64, error) {
	deadline := time.Now().Add(settleTimeout)
	for {
		r, err := c.byteRate(settleWindow)
		if err != nil {
			return 0, err
		}
		if r <= idleRate*settleFactor+settleSlack {
			return r, nil
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("cluster did not settle within %s: %.0f B/s against an idle %.0f B/s", settleTimeout, r, idleRate)
		}
	}
}

// reserveAddrs grabs n distinct loopback addresses by binding and
// releasing ephemeral listeners: every member needs the whole peer map
// before any of them starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// gaugeSampler scrapes the cluster periodically while a phase runs, for
// the gauges (queue depths, staleness, disk footprint) a before/after
// delta cannot give.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	got  []scrapes
}

func (c *cluster) sampleGauges(every time.Duration) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				if ss, err := c.scrapeAll(); err == nil {
					g.mu.Lock()
					g.got = append(g.got, ss)
					g.mu.Unlock()
				}
			}
		}
	}()
	return g
}

// finish stops sampling and returns every scrape taken.
func (g *gaugeSampler) finish() []scrapes {
	close(g.stop)
	<-g.done
	return g.got
}

// gaugeMax is the largest value any series of family name took in any
// sample.
func gaugeMax(samples []scrapes, name string) float64 {
	m := 0.0
	for _, ss := range samples {
		for _, s := range ss {
			for _, v := range s.series(name) {
				if v > m {
					m = v
				}
			}
		}
	}
	return m
}

// gaugeMedianOfMax is the median over samples of the family's largest
// series.
func gaugeMedianOfMax(samples []scrapes, name string) float64 {
	var xs []float64
	for _, ss := range samples {
		xs = append(xs, gaugeMax([]scrapes{ss}, name))
	}
	return median(xs)
}
