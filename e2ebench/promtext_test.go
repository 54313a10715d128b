package main

import (
	"strings"
	"testing"
)

const before = `# HELP ec_transport_frames_sent_total Frames written to peer links.
# TYPE ec_transport_frames_sent_total counter
ec_transport_frames_sent_total 100
ec_net_batch_size 1.5
ec_shard_ops_total{shard="0"} 10
ec_shard_ops_total{shard="1"} 20
ec_geo_staleness_ms{zone="eu west"} 12
`

const after = `ec_transport_frames_sent_total 160
ec_net_batch_size 2
ec_shard_ops_total{shard="0"} 40
ec_shard_ops_total{shard="1"} 30
ec_geo_staleness_ms{zone="eu west"} 7
`

func mustParse(t *testing.T, s string) sample {
	t.Helper()
	m, err := parseMetrics(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseMetrics(t *testing.T) {
	m := mustParse(t, before)
	if len(m) != 5 {
		t.Fatalf("parsed %d series, want 5: %v", len(m), m)
	}
	if v := m[`ec_geo_staleness_ms{zone="eu west"}`]; v != 12 {
		t.Errorf("label value with a space: got %v", v)
	}
	if v := m.sum("ec_shard_ops_total"); v != 30 {
		t.Errorf("sum over shards = %v, want 30", v)
	}
	if v := m.sum("ec_transport_frames_sent"); v != 0 {
		t.Errorf("a name prefix matched another family: %v", v)
	}
	if _, err := parseMetrics(strings.NewReader("ec_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestCounterDeltas(t *testing.T) {
	b, a := scrapes{mustParse(t, before)}, scrapes{mustParse(t, after)}
	if d := deltaAll(b, a, "ec_transport_frames_sent_total"); d != 60 {
		t.Errorf("frames delta = %v, want 60", d)
	}
	if d := deltaAll(b, a, "ec_shard_ops_total"); d != 40 {
		t.Errorf("shard ops delta = %v, want 40", d)
	}
	got := seriesDeltas(b, a, "ec_shard_ops_total")
	if len(got) != 2 || got[0]+got[1] != 40 || maxOf(got) != 30 {
		t.Errorf("per-shard deltas = %v, want {30, 10}", got)
	}
	// A counter that went backwards restarted: count from zero.
	restarted := scrapes{mustParse(t, "ec_transport_frames_sent_total 5\n")}
	if d := deltaAll(b, restarted, "ec_transport_frames_sent_total"); d != 5 {
		t.Errorf("delta across a restart = %v, want 5", d)
	}
	// Gauges across samples.
	samples := []scrapes{b, a}
	if m := gaugeMax(samples, "ec_geo_staleness_ms"); m != 12 {
		t.Errorf("gaugeMax = %v", m)
	}
	if m := gaugeMedianOfMax(samples, "ec_geo_staleness_ms"); m != 9.5 {
		t.Errorf("gaugeMedianOfMax = %v", m)
	}
}
