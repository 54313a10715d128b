package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// sample is one /metrics scrape: series name (with its label set, as
// written) to value. HELP/TYPE comments are skipped.
type sample map[string]float64

// parseMetrics reads Prometheus text exposition format.
func parseMetrics(r io.Reader) (sample, error) {
	s := sample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, sc.Err()
}

// sum adds every series of the metric family name, across label sets.
func (s sample) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// series returns each labelled series of family name.
func (s sample) series(name string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			out[k] = v
		}
	}
	return out
}

// delta is after minus before for one counter family summed over label
// sets. A counter that went backwards (a restarted node) contributes its
// after value, the count since the restart.
func delta(before, after sample, name string) float64 {
	d := 0.0
	for k, v := range after.series(name) {
		if b, ok := before[k]; ok && v >= b {
			d += v - b
		} else {
			d += v
		}
	}
	return d
}

// scrapes is one sample per node, in node order.
type scrapes []sample

func (ss scrapes) sum(name string) float64 {
	t := 0.0
	for _, s := range ss {
		t += s.sum(name)
	}
	return t
}

func deltaAll(before, after scrapes, name string) float64 {
	d := 0.0
	for i := range after {
		d += delta(before[i], after[i], name)
	}
	return d
}

// seriesDeltas returns the per-series counter deltas of family name
// across all nodes (the shard counters: one entry per node x shard).
func seriesDeltas(before, after scrapes, name string) []float64 {
	var out []float64
	for i := range after {
		for k, v := range after[i].series(name) {
			out = append(out, v-before[i][k])
		}
	}
	return out
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func scrape(addr string) (sample, error) {
	resp, err := httpClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	return parseMetrics(resp.Body)
}
