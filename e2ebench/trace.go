package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Failed bool   `json:"failed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix: "quorum.put" belongs to "quorum".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name their parent before
// the parent's span is recorded.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent, op int64, name string, start, end time.Time, failed bool) int64 {
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Failed: failed}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// timed runs fn inside a span and returns the span's id.
func (t *tracer) timed(parent, op int64, name string, fn func() bool) int64 {
	id := t.newID()
	start := time.Now()
	ok := fn()
	t.record(id, parent, op, name, start, time.Now(), !ok)
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover. Children may overlap each other (a quorum put
// writes replicas in parallel), so their union is subtracted, clipped to
// the parent.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered := int64(0)
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				flush()
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		flush()
		self[s.ID] = s.dur() - covered
	}
	return self
}

// nameStats aggregates the spans of one name.
type nameStats struct {
	count    int
	busyNs   int64
	selfNs   int64
	failures int
}

func (n nameStats) meanSelfUs() float64 { return ratio(float64(n.selfNs)/1e3, float64(n.count)) }

func statsByName(spans []span) map[string]*nameStats {
	self := selfTimes(spans)
	out := map[string]*nameStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &nameStats{}
			out[s.Name] = st
		}
		st.count++
		st.busyNs += s.dur()
		st.selfNs += self[s.ID]
		if s.Failed {
			st.failures++
		}
	}
	return out
}

// layerRow is one line of the per-layer table: per operation of the run
// the layer's spans came from.
type layerRow struct {
	layer    string
	count    int
	busyUsOp float64
	selfUsOp float64
	failures int
	ops      int
}

// layerTable folds span stats by layer. opsOf gives the number of
// operations the layer's spans were recorded over.
func layerTable(spans []span, opsOf func(layer string) int) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		l := s.layer()
		r := rows[l]
		if r == nil {
			r = &layerRow{layer: l, ops: opsOf(l)}
			rows[l] = r
		}
		r.count++
		r.busyUsOp += float64(s.dur()) / 1e3
		r.selfUsOp += float64(self[s.ID]) / 1e3
		if s.Failed {
			r.failures++
		}
	}
	var out []layerRow
	for _, r := range rows {
		r.busyUsOp = ratio(r.busyUsOp, float64(r.ops))
		r.selfUsOp = ratio(r.selfUsOp, float64(r.ops))
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-10s %8s %8s %14s %14s %9s\n", "layer", "ops", "spans", "busy_us/op", "self_us/op", "failures")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %8d %14.2f %14.2f %9d\n", r.layer, r.ops, r.count, r.busyUsOp, r.selfUsOp, r.failures)
	}
}

// writeSpans writes spans as JSON lines, one span a line, after a header
// line carrying the run's host metadata.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
