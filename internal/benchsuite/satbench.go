package benchsuite

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/wal"
)

// SaturationConfig parameterizes one open-loop run against a fresh
// in-process cluster.
type SaturationConfig struct {
	Nodes     int            // cluster size (default 3)
	Model     string         // consistency model (default "quorum")
	Durable   bool           // journal to a WAL before acking
	Fsync     wal.SyncPolicy // WAL fsync policy when Durable (zero = SyncEach)
	Dir       string         // scratch dir for WALs (required when Durable)
	Target    int            // offered load in ops/sec (default 6000)
	Duration  time.Duration  // measurement window (default 1.5s)
	Conns     int            // pipelined client connections (default 4)
	ValueSize int            // put payload bytes (default 128)
	Keys      int            // distinct keys (default 1000)
	GetFrac   float64        // fraction of gets (default 0.5)
	Engine    string         // storage engine ("" = "mem"; "lsm" needs Durable, quorum model)
}

// SaturationResult is what one run measured.
type SaturationResult struct {
	Started  int // ops dispatched
	Done     int // ops completed
	Errors   int
	Shed     int // ops dropped at the in-flight cap: the overload signal
	Elapsed  time.Duration
	Achieved float64 // completed ops/sec
	P50, P99 time.Duration
}

// RunSaturation boots a cluster on loopback TCP and drives it
// open-loop: operations dispatch on a fixed cadence derived from
// Target regardless of completions, so queueing shows up as latency
// (and, past the in-flight cap, as shed load) instead of the driver
// politely slowing down. Closed-loop drivers hide saturation — an
// overloaded server just makes the loop wait; this one keeps offering,
// which is what makes the result a capacity measurement. All
// connections go to one node, so the run also exercises the full fast
// path in one process: pipelined client frames, concurrent dispatch,
// coordinator fan-out batching, and (Durable) WAL group commit.
func RunSaturation(cfg SaturationConfig) (SaturationResult, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Model == "" {
		cfg.Model = "quorum"
	}
	if cfg.Target == 0 {
		cfg.Target = 6000
	}
	if cfg.Duration == 0 {
		cfg.Duration = 1500 * time.Millisecond
	}
	if cfg.Conns == 0 {
		cfg.Conns = 4
	}
	if cfg.ValueSize == 0 {
		cfg.ValueSize = 128
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1000
	}
	if cfg.GetFrac == 0 {
		cfg.GetFrac = 0.5
	}
	var res SaturationResult

	addrs, err := reserveAddrs(cfg.Nodes)
	if err != nil {
		return res, err
	}
	peers := make(map[string]string, cfg.Nodes)
	for i, a := range addrs {
		peers[fmt.Sprintf("node%d", i)] = a
	}
	policy := &resilience.Policy{HeartbeatInterval: 20 * time.Millisecond}
	servers := make([]*server.Server, 0, cfg.Nodes)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < cfg.Nodes; i++ {
		scfg := server.Config{
			ID:     fmt.Sprintf("node%d", i),
			Model:  cfg.Model,
			Peers:  peers,
			Policy: policy,
			Seed:   int64(1000 + i),
			Engine: cfg.Engine,
		}
		if cfg.Durable {
			if cfg.Dir == "" {
				return res, fmt.Errorf("satbench: Durable requires Dir")
			}
			scfg.DataDir = filepath.Join(cfg.Dir, scfg.ID)
			scfg.Fsync = cfg.Fsync
		}
		s, err := server.New(scfg)
		if err != nil {
			return res, err
		}
		servers = append(servers, s)
	}

	clients := make([]*server.Client, cfg.Conns)
	for i := range clients {
		c, err := server.Dial(servers[0].Addr(), fmt.Sprintf("sat-%d", i))
		if err != nil {
			return res, err
		}
		defer c.Close()
		clients[i] = c
	}
	if _, _, err := clients[0].Status(); err != nil {
		return res, fmt.Errorf("satbench: cluster not ready: %w", err)
	}

	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	// The cap bounds driver memory under overload; open-loop semantics
	// survive because hitting it is counted, not waited out.
	const maxInflight = 1024
	sem := make(chan struct{}, maxInflight)
	var mu sync.Mutex
	lats := make([]time.Duration, 0, cfg.Target*int(cfg.Duration/time.Second+1))
	var done, errs int

	rng := rand.New(rand.NewSource(1))
	interval := time.Second / time.Duration(cfg.Target)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	var wg sync.WaitGroup
	conn := 0
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			continue
		}
		next = next.Add(interval)
		select {
		case sem <- struct{}{}:
		default:
			res.Shed++
			continue
		}
		res.Started++
		key := fmt.Sprintf("sat-%d", rng.Intn(cfg.Keys))
		get := rng.Float64() < cfg.GetFrac
		c := clients[conn%len(clients)]
		conn++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			var err error
			if get {
				_, _, err = c.Get(key)
			} else {
				err = c.Put(key, value)
			}
			d := time.Since(t0)
			mu.Lock()
			lats = append(lats, d)
			done++
			if err != nil {
				errs++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Done, res.Errors = done, errs
	res.Achieved = float64(done) / res.Elapsed.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		res.P50 = lats[int(0.50*float64(len(lats)-1))]
		res.P99 = lats[int(0.99*float64(len(lats)-1))]
	}
	return res, nil
}

// reserveAddrs grabs n distinct loopback addresses by binding and
// releasing ephemeral listeners — the members must agree on the peer
// map before any of them starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// saturation runs RunSaturation once per iteration and reports
// capacity, not time-per-op: achieved ops/s at the fixed offered load,
// tail latency, and the shed count under overload.
func saturation(b *testing.B, model string, durable bool, fsync wal.SyncPolicy, engine string) {
	for i := 0; i < b.N; i++ {
		res, err := RunSaturation(SaturationConfig{
			Model:   model,
			Durable: durable,
			Fsync:   fsync,
			Dir:     b.TempDir(),
			Engine:  engine,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Done == 0 {
			b.Fatal("saturation run completed no operations")
		}
		if res.Errors > res.Done/10 {
			b.Fatalf("%d/%d operations failed", res.Errors, res.Done)
		}
		b.ReportMetric(res.Achieved, "ops/s")
		b.ReportMetric(float64(res.P99.Microseconds())/1000, "p99-ms")
		b.ReportMetric(float64(res.Shed), "shed")
	}
}

// satBenchmarks registers the cluster saturation benchmarks: the
// in-memory capacity of each model, quorum with the full
// durable-before-ack path (the WAL group-commit case), and the storage
// engine pair.
func satBenchmarks() []Benchmark {
	var out []Benchmark
	for _, model := range []string{"gossip", "quorum"} {
		model := model
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkSaturation/model=%s", model),
			F:    func(b *testing.B) { saturation(b, model, false, wal.SyncEach, "") },
		})
	}
	out = append(out, Benchmark{
		Name: "BenchmarkSaturation/model=quorum-durable",
		F:    func(b *testing.B) { saturation(b, "quorum", true, wal.SyncEach, "") },
	})
	// The engine pair holds everything but the storage engine fixed
	// (durable quorum, batch fsync) so the two cells bracket what
	// moving replica state from the in-memory map to disk-resident
	// LSM tree costs on the full request path.
	for _, engine := range []string{"mem", "lsm"} {
		engine := engine
		out = append(out, Benchmark{
			Name: fmt.Sprintf("BenchmarkSaturation/engine=%s", engine),
			F:    func(b *testing.B) { saturation(b, "quorum", true, wal.SyncBatch, engine) },
		})
	}
	return out
}
