package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// program. Layer is the module the call enters (engine, scenario, serve,
// diskcache, core, attack/physical, cache, attack/transient, tables);
// Parent is the span that caused it (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // family, cache tier, trace count
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	Dur    int64  `json:"dur_ns"`
}

func (s *span) end() int64 { return s.Start + s.Dur }

// tracer keeps every span in memory; spans are written out once, when
// the run ends. A nil *tracer is the untraced run: record, open and
// close are no-ops, and callers install no wrappers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since is the tracer clock.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// record appends a finished span and returns its ID.
func (t *tracer) record(parent int32, layer, name, tag string, start time.Time, dur time.Duration) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Tag: tag, Start: t.since(start), Dur: int64(dur)})
	return id
}

// open starts a span whose children need its ID before it ends; close
// fills in its duration.
func (t *tracer) open(parent int32, layer, name, tag string) int32 {
	return t.record(parent, layer, name, tag, time.Now(), 0)
}

func (t *tracer) close(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = t.since(time.Now()) - s.Start
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int32) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers.
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.end(), s.end())
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.Dur - covered
	}
	return self
}

// summary aggregates spans by layer and name: count, total and self
// time in milliseconds.
type summaryRow struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []summaryRow {
	self := t.selfTimes()
	idx := map[[2]string]int{}
	var rows []summaryRow
	for i, s := range t.spans {
		k := [2]string{s.Layer, s.Name}
		j, ok := idx[k]
		if !ok {
			j = len(rows)
			idx[k] = j
			rows = append(rows, summaryRow{Layer: s.Layer, Name: s.Name})
		}
		rows[j].Count++
		rows[j].TotalMS += float64(s.Dur) / 1e6
		rows[j].SelfMS += float64(self[i]) / 1e6
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	return rows
}

// writeSummary prints the self-time table.
func writeSummary(w io.Writer, rows []summaryRow) {
	fmt.Fprintf(w, "%-18s %-28s %9s %12s %12s\n", "layer", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-28s %9d %12.3f %12.3f\n", r.Layer, r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// writeFile writes the whole trace — environment, summary and every
// span — as one JSON document.
func (t *tracer) writeFile(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	doc := struct {
		Env     map[string]any `json:"env"`
		Summary []summaryRow   `json:"summary"`
		Spans   []span         `json:"spans"`
	}{env, t.summary(), t.spans}
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
