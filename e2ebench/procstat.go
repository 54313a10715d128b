package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// procStat is a snapshot of the whole process's resource counters:
// the cluster and the load generator share it.
type procStat struct {
	cpu        time.Duration // user + system, from getrusage
	allocs     uint64
	allocBytes uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate (same basis as gcCPU)
}

var procSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procStat {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(procSamples))
	for i, n := range procSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return procStat{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// procDelta is the per-operation resource cost between two snapshots.
type procDelta struct {
	cpuUsPerOp, allocsPerOp, allocBytesPerOp, gcCPUFrac float64
}

func diffProc(a, b procStat, ops int) procDelta {
	n := float64(ops)
	return procDelta{
		cpuUsPerOp:      ratio(float64(b.cpu-a.cpu)/1e3, n),
		allocsPerOp:     ratio(float64(b.allocs-a.allocs), n),
		allocBytesPerOp: ratio(float64(b.allocBytes-a.allocBytes), n),
		gcCPUFrac:       ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

// host describes where a result was measured.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func hostInfo(workload string, seed int64, seconds int, trace bool) host {
	h := host{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: commitID(),
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var rel []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			rel = append(rel, byte(c))
		}
		h.Kernel = string(rel)
	}
	return h
}

// commitID reads the checked-out commit from .git when the benchmark
// runs inside a git work tree; a plain source checkout can name it in
// BENCH_COMMIT instead.
func commitID() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
