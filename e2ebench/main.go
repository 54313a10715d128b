// Command e2ebench is ecstore's end-to-end benchmark. It boots an
// in-process cluster on loopback TCP (server.New), drives it only
// through the public client (server.Client, GetSLA) from one process,
// checks that every acked write survived, and prints the result as a
// JSON object on the last line of standard output.
//
//	bash e2ebench/run.sh --workload kv-mem --seed 1 --seconds 32 --trace 0
//
// A run is nRounds rounds, each on a freshly booted, preloaded and
// settled cluster: a closed-loop capacity phase, then an open-loop phase
// at the workload's fixed rate. End-to-end metrics are medians over the
// rounds. --trace 1 reports per-layer metrics instead: /metrics counter
// deltas and gauges scraped around the last round's phases, process
// counters, a traced capacity phase (its overhead against the untraced
// one) and a replay of the run's operations through each layer's public
// functions, with every span written to a file. --workload all runs
// every workload in turn.
//
// Workloads kv-mem and geo-sla are the gated benchmark (BENCHMARK.json).
// durable-lsm (WAL with fsync=sync, LSM engine) runs the same way but is
// not gated: on the hosts measured so far its capacity and latency
// spread across runs by more than any bound a regression gate could use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	workersPerConn = 16 // closed-loop window per connection
	maxInflight    = 4096
	// nRounds is how many fresh clusters a run sets up and measures; the
	// end-to-end metrics, setup_s included, are medians over them.
	nRounds       = 5
	capacityShare = 0.4 // of --seconds; the open loop gets the rest
	phaseGap      = 500 * time.Millisecond
	warmup        = time.Second
	gaugeEvery    = 250 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	workdir string
	spans   string
	log     io.Writer
}

func main() { os.Exit(realMain()) }

// realMain runs the benchmark and returns the exit code: 0 on a correct
// run, 1 when the correctness check failed, 2 when no result was made.
func realMain() int {
	var (
		name  = flag.String("workload", "", "workload: kv-mem, durable-lsm, geo-sla, or all")
		seed  = flag.Int64("seed", 1, "seed for the generated keys and operation stream")
		secs  = flag.Int("seconds", 32, "measured seconds per run, shared by the rounds' capacity and open-loop phases")
		trace = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	o := options{log: os.Stderr}
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "run"), "scratch directory for node data")
	flag.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "trace"), "directory the traced run writes its span file to")
	flag.Parse()
	o.seed, o.seconds, o.trace = *seed, *secs, *trace == 1
	if (*trace != 0 && *trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		h := hostInfo(w.name, o.seed, o.seconds, o.trace)
		hj, _ := json.Marshal(h)
		fmt.Printf("host %s\n", hj)
		res, err := run(w, o, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			return 2
		}
		printMetrics(os.Stderr, w.name, res)
		if len(ws) == 1 {
			final = res
			break
		}
		// --workload all: one line per workload, then the combined result
		// with metric names qualified by workload.
		line, _ := json.Marshal(res)
		fmt.Printf("%s %s\n", w.name, line)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			final.Metrics[w.name+"/"+k] = m
		}
	}
	line, _ := json.Marshal(final)
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func printMetrics(out io.Writer, name string, r result) {
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

// nconns is the number of client connections: one per core, and at
// least two so geo-sla can write through one zone and read through
// another.
func nconns() int { return max(2, runtime.NumCPU()) }

// phase is one measured phase with the cluster counters around it.
type phase struct {
	rec           *recorder
	dur           time.Duration
	before, after scrapes
	gauges        []scrapes
	p0, p1        procStat
}

// measure runs one phase; with scrape set it reads /metrics around it
// and samples the gauges while it runs.
func measure(c *cluster, scrape bool, dur time.Duration, body func() *recorder) (phase, error) {
	p := phase{dur: dur}
	var g *gaugeSampler
	if scrape {
		var err error
		if p.before, err = c.scrapeAll(); err != nil {
			return p, err
		}
		g = c.sampleGauges(gaugeEvery)
	}
	p.p0 = readProc()
	p.rec = body()
	p.p1 = readProc()
	if scrape {
		p.gauges = g.finish()
		var err error
		if p.after, err = c.scrapeAll(); err != nil {
			return p, err
		}
	}
	return p, nil
}

// round is one cluster's life in a run: set-up, the measured phases and
// the correctness check.
type round struct {
	setupS, settleS, idleBytesPerS float64
	capPh, tracedPh, openPh        phase
	led                            *ledger
	tr                             *tracer
	lost                           []lostWrite
	checkReads                     int
}

// runRound boots, preloads and settles a fresh cluster (the timed
// set-up), warms it up, measures the closed-loop capacity phase and the
// open-loop phase, and checks every key. traced adds the /metrics
// scrapes and a traced capacity phase.
func runRound(w workload, o options, i int, capDur, openDur time.Duration, traced bool) (*round, error) {
	r := &round{}
	t0 := time.Now()
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
	c, err := startCluster(w, o.seed, dir, nconns())
	if err != nil {
		return nil, err
	}
	defer c.close()
	idleRate, err := c.idleRate()
	if err != nil {
		return nil, err
	}
	r.led = newLedger(w.keys)
	d := &loader{w: w, conns: c.conns, led: r.led}
	workers := workersPerConn * len(c.conns)
	d.preload(workers)
	t1 := time.Now()
	if r.idleBytesPerS, err = c.settle(idleRate); err != nil {
		return nil, err
	}
	r.setupS, r.settleS = time.Since(t0).Seconds(), time.Since(t1).Seconds()
	fmt.Fprintf(o.log, "round %d: setup %.3fs (settle %.3fs; %.0f B/s idle after boot, %.0f B/s settled)\n",
		i, r.setupS, r.settleS, idleRate, r.idleBytesPerS)

	// Each round draws its own stream, fixed by the seed.
	src := &opSource{g: newOpGen(w, o.seed*1000+int64(i))}
	// Warm up unmeasured first: the first second after set-up runs
	// slower while heaps and per-key client state grow.
	closedLoop(warmup, workers, src.next, d.exec)
	if r.capPh, err = measure(c, traced, capDur, func() *recorder {
		return closedLoop(capDur, workers, src.next, d.exec)
	}); err != nil {
		return nil, err
	}
	if traced {
		// Straight after the untraced phase, so the difference between
		// the two is the tracing overhead and not drift.
		r.tr = newTracer()
		td := &loader{w: w, conns: c.conns, led: r.led, tr: r.tr}
		if r.tracedPh, err = measure(c, true, capDur, func() *recorder {
			return closedLoop(capDur, workers, src.next, td.exec)
		}); err != nil {
			return nil, err
		}
	}
	time.Sleep(phaseGap)
	if r.openPh, err = measure(c, traced, openDur, func() *recorder {
		return openLoop(openDur, w.rate, maxInflight, src.next, d.exec)
	}); err != nil {
		return nil, err
	}
	r.lost, r.checkReads = d.checkAll(workers)
	return r, nil
}

// run measures one workload: nRounds rounds, each on a fresh cluster.
// End-to-end metrics are medians over the rounds, so one cluster that
// happened to run slow does not set them. The traced run's per-layer
// metrics come from the last round.
func run(w workload, o options, h host) (result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	total := time.Duration(o.seconds) * time.Second / nRounds
	capDur := time.Duration(float64(total) * capacityShare)
	openDur := total - capDur
	res := result{Correct: true, Metrics: map[string]metric{}}
	var rounds []*round
	for i := 0; i < nRounds; i++ {
		r, err := runRound(w, o, i, capDur, openDur, o.trace && i == nRounds-1)
		if err != nil {
			return result{}, err
		}
		rounds = append(rounds, r)
		phases := []struct {
			name string
			rec  *recorder
		}{{"capacity", r.capPh.rec}, {"traced", r.tracedPh.rec}, {"open", r.openPh.rec}}
		corrupt := 0
		for _, p := range phases {
			if p.rec == nil {
				continue
			}
			fmt.Fprintf(o.log, "  phase %-8s attempted=%d failed=%d puts-turned-gets=%d\n",
				p.name, p.rec.attempted(), p.rec.failed(), p.rec.converted)
			res.Attempted += p.rec.attempted()
			res.Failed += p.rec.failed()
			corrupt += p.rec.corrupt
		}
		fmt.Fprintf(o.log, "  phase check    keys=%d reads=%d lost=%d\n", w.keys, r.checkReads, len(r.lost))
		// The tails are shown here but not gated (see endToEnd).
		fmt.Fprintf(o.log, "  capacity %.0f ops/s; open loop", capacity(r.capPh))
		for k := range r.openPh.rec.lat {
			l := &r.openPh.rec.lat[k]
			if l.attempted() > 0 {
				fmt.Fprintf(o.log, " %s n=%d p50=%.3f p90=%.3f p99=%.3f ms", opKind(k), l.attempted(),
					l.windowedMs(0.50, r.openPh.dur, clientTimeout),
					l.windowedMs(0.90, r.openPh.dur, clientTimeout),
					l.windowedMs(0.99, r.openPh.dur, clientTimeout))
			}
		}
		fmt.Fprintln(o.log)
		for j, l := range r.lost {
			if j == 10 {
				fmt.Fprintf(o.log, "  ... %d more\n", len(r.lost)-10)
				break
			}
			fmt.Fprintf(o.log, "  lost write %s\n", l)
		}
		if corrupt > 0 {
			fmt.Fprintf(o.log, "  reads returning a value never written: %d\n", corrupt)
		}
		res.Correct = res.Correct && len(r.lost) == 0 && corrupt == 0
	}
	if !o.trace {
		endToEnd(&res, w, rounds)
		return res, nil
	}
	last := rounds[len(rounds)-1]
	rep, err := replayLayers(last.tr, w, o.seed, filepath.Join(o.workdir, fmt.Sprintf("replay-%d", os.Getpid())))
	if err != nil {
		return result{}, err
	}
	perLayer(&res, w, rounds, rep, o, h)
	return res, nil
}

// capacity is the closed loop's completed operations per second: the
// median over one-second windows, so one stalled second does not set it.
func capacity(p phase) float64 {
	return windowedRate(p.rec.doneAt, p.dur, max(1, int(p.dur/time.Second)))
}

// medianOver is the median over rounds of f.
func medianOver(rounds []*round, f func(*round) float64) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// endToEnd fills the metrics a user of the store sees.
func endToEnd(res *result, w workload, rounds []*round) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", "s", medianOver(rounds, func(r *round) float64 { return r.setupS }))
	set("capacity_ops_s", "ops/s", medianOver(rounds, func(r *round) float64 { return capacity(r.capPh) }))
	// Outside geo-sla every get is a strong-tier quorum read.
	strong := opGet
	if w.geo() {
		strong = opStrongGet
	}
	// Only medians are gated. On a shared 2-core host the tails (p90,
	// p99; printed per round) measure the host's scheduling stalls more
	// than the store: across runs of one commit they spread by more than
	// any bound a regression gate could use.
	for _, k := range []struct {
		name string
		kind opKind
	}{{"get", opGet}, {"put", opPut}, {"strong_get", strong}} {
		set(k.name+"_p50_ms", "ms", medianOver(rounds, func(r *round) float64 {
			return r.openPh.rec.lat[k.kind].windowedMs(0.50, r.openPh.dur, clientTimeout)
		}))
	}
}

// perLayer fills the traced run's per-layer metrics and writes its span
// file.
func perLayer(res *result, w workload, rounds []*round, rep replayResult, o options, h host) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	last := rounds[len(rounds)-1]
	capPh, openPh, tracedPh, led, tr := last.capPh, last.openPh, last.tracedPh, last.led, last.tr
	capOps := capPh.rec.attempted()
	n := float64(capOps)
	b, a := capPh.before, capPh.after

	pd := diffProc(capPh.p0, capPh.p1, capOps)
	set("process.cpu_us_per_op", "us", pd.cpuUsPerOp)
	set("process.allocs_per_op", "count", pd.allocsPerOp)
	set("process.alloc_bytes_per_op", "B", pd.allocBytesPerOp)
	set("process.gc_cpu_frac", "ratio", pd.gcCPUFrac)
	var lags latencies
	for _, l := range openPh.rec.lags {
		lags.add(0, l)
	}
	set("gen.lag_ms_p99", "ms", lags.percentileMs(0.99, 0))
	set("gen.put_to_get_frac", "ratio", ratio(float64(capPh.rec.converted), n))
	set("setup.settle_s", "s", medianOver(rounds, func(r *round) float64 { return r.settleS }))

	frames := deltaAll(b, a, "ec_transport_frames_sent_total")
	envs := deltaAll(b, a, "ec_transport_envelopes_sent_total")
	set("transport.frames_per_op", "count", ratio(frames, n))
	set("transport.envelopes_per_op", "count", ratio(envs, n))
	set("transport.bytes_per_op", "B", ratio(deltaAll(b, a, "ec_transport_bytes_sent_total"), n))
	set("transport.batch_size", "count", ratio(envs, frames))
	set("transport.dropped_per_kop", "count", ratio(1000*deltaAll(b, a, "ec_transport_messages_dropped_total"), n))
	set("transport.idle_bytes_per_s", "B/s", medianOver(rounds, func(r *round) float64 { return r.idleBytesPerS }))

	bothOps := float64(capOps + openPh.rec.attempted())
	errs := deltaAll(b, a, "ec_request_errors_total") + deltaAll(openPh.before, openPh.after, "ec_request_errors_total")
	set("server.request_errors_per_kop", "count", ratio(1000*errs, bothOps))

	shardOps := seriesDeltas(b, a, "ec_shard_ops_total")
	mean := 0.0
	for _, x := range shardOps {
		mean += x / float64(len(shardOps))
	}
	set("shard.ops_imbalance", "ratio", ratio(maxOf(shardOps), mean))
	set("shard.queue_depth_max", "count", gaugeMax(capPh.gauges, "ec_shard_queue_depth"))

	gets := float64(capPh.rec.lat[opGet].attempted() + capPh.rec.lat[opStrongGet].attempted())
	set("lsm.flushes", "count", deltaAll(b, a, "ec_lsm_flushes_total"))
	set("lsm.compactions", "count", deltaAll(b, a, "ec_lsm_compactions_total"))
	set("lsm.sstables", "count", a.sum("ec_lsm_sstables"))
	set("lsm.block_reads_per_get", "count", ratio(deltaAll(b, a, "ec_lsm_block_reads_total"), gets))
	set("lsm.bloom_skips_per_get", "count", ratio(deltaAll(b, a, "ec_lsm_bloom_misses_total"), gets))

	appends := deltaAll(b, a, "ec_wal_appends_total")
	fsyncs := deltaAll(b, a, "ec_wal_fsyncs_total")
	set("wal.appends_per_op", "count", ratio(appends, n))
	set("wal.fsyncs_per_op", "count", ratio(fsyncs, n))
	set("wal.group_commit_size", "count", ratio(appends, fsyncs))
	set("wal.persist_failures", "count", deltaAll(b, a, "ec_wal_persist_failures_total"))

	ob, oa := openPh.before, openPh.after
	puts := float64(openPh.rec.lat[opPut].attempted())
	set("geo.shipped_per_put", "count", ratio(deltaAll(ob, oa, "ec_geo_shipped_total"), puts))
	set("geo.resends", "count", deltaAll(ob, oa, "ec_geo_resends_total"))
	set("geo.queue_depth_max", "count", gaugeMax(openPh.gauges, "ec_geo_queue_depth"))
	set("geo.staleness_ms", "ms", gaugeMedianOfMax(openPh.gauges, "ec_geo_staleness_ms"))
	sv := led.judge(openPh.rec.reads)
	set("stale_read_frac", "ratio", sv.frac())
	set("geo.stamp_underestimate_frac", "ratio", sv.underestimateFrac())
	userBytes := float64(w.keys*(len(keyName(0))+w.valueSize)) * 3
	disk := 0.0
	if len(openPh.gauges) > 0 {
		var xs []float64
		for _, ss := range openPh.gauges {
			xs = append(xs, ss.sum("ec_wal_disk_bytes")+ss.sum("ec_lsm_disk_bytes"))
		}
		disk = median(xs)
	}
	set("disk_bytes_per_user_byte", "ratio", ratio(disk, userBytes))

	// Spans: the traced capacity phase's client calls and the replay.
	spans := tr.snapshot()
	byName := statsByName(spans)
	perCall := func(name string) float64 {
		if s := byName[name]; s != nil {
			return s.meanSelfUs()
		}
		return 0
	}
	perOp := func(name string) float64 {
		if s := byName[name]; s != nil {
			return float64(s.selfNs) / 1e3 / replayOps
		}
		return 0
	}
	set("transport.encode_us", "us", perOp("transport.encode"))
	set("transport.decode_us", "us", perOp("transport.decode"))
	set("transport.decode_allocs", "count", rep.decodeAllocs)
	set("ring.replicas_us", "us", perCall("ring.replicas"))
	set("geo.pick_us", "us", perCall("geo.pick"))
	set("quorum.put_us", "us", perCall("quorum.put"))
	set("quorum.get_us", "us", perCall("quorum.get"))
	set("quorum.retries", "count", rep.quorumRetries)
	set("quorum.failed", "count", float64(rep.quorumFailed))
	set("storage.put_us", "us", perCall("storage.put"))
	set("storage.get_us", "us", perCall("storage.get"))
	set("lsm.put_us", "us", perCall("lsm.put"))
	set("lsm.get_us", "us", perCall("lsm.get"))
	set("lsm.flush_ms", "ms", perCall("lsm.flush")/1e3)
	set("wal.append_us", "us", perCall("wal.append"))
	set("wal.record_bytes", "B", rep.walRecordBytes)

	untraced, traced := capacity(capPh), capacity(tracedPh)
	set("trace.capacity_ops_s", "ops/s", traced)
	set("trace.overhead_frac", "ratio", ratio(untraced-traced, untraced))

	// The per-operation budget: the self time of each layer on this
	// workload's request path, against the CPU an operation costs.
	tracedOps := tracedPh.rec.attempted()
	rows := layerTable(spans, func(layer string) int {
		if layer == "client" {
			return tracedOps
		}
		return replayOps
	})
	onPath := map[string]bool{"transport": true, "ring": true, "quorum": true}
	switch {
	case w.lsm:
		onPath["lsm"], onPath["wal"] = true, true
	case w.geo():
		onPath["storage"], onPath["geo"] = true, true
	default:
		onPath["storage"] = true
	}
	budget := 0.0
	fmt.Fprintf(o.log, "\nper-layer spans (%s; client: traced capacity phase, others: replay of %d ops)\n", w.name, replayOps)
	printLayerTable(o.log, rows)
	fmt.Fprintf(o.log, "\nper-op budget (layers on the %s request path, self us/op)\n", w.name)
	for _, r := range rows {
		if onPath[r.layer] {
			budget += r.selfUsOp
			fmt.Fprintf(o.log, "  %-10s %10.2f\n", r.layer, r.selfUsOp)
		}
	}
	fmt.Fprintf(o.log, "  %-10s %10.2f  against process.cpu_us_per_op %.2f (%.0f%%)\n",
		"sum", budget, pd.cpuUsPerOp, 100*ratio(budget, pd.cpuUsPerOp))
	fmt.Fprintf(o.log, "tracing overhead: traced capacity %.0f ops/s against untraced %.0f ops/s\n", traced, untraced)
	set("trace.layer_self_us_per_op", "us", budget)
	set("trace.budget_frac", "ratio", ratio(budget, pd.cpuUsPerOp))

	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, o.seed))
	if err := writeSpans(path, h, spans); err != nil {
		fmt.Fprintf(o.log, "writing spans: %v\n", err)
	} else {
		fmt.Fprintf(o.log, "spans: %d written to %s\n", len(spans), path)
	}
}
