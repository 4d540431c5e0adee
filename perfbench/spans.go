package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval the benchmark records around a call into a
// layer, or reconstructs from timestamps taken at a layer's boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Group is "run" or "m<k>": one identifier per market or per run.
	Group string `json:"group"`
	// Lane 0 is the benchmark's blocking timeline (the caller waiting on
	// the program); lane w > 0 is fleet-driver worker w, whose work
	// overlaps lane 0 and is accounted as busy time, not self time.
	Lane    int   `json:"lane,omitempty"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only nil checks. Lane-0 spans are opened
// and closed by the run's main goroutine only; add is safe from any.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// rel converts a Unix-nanosecond timestamp to the tracer's clock.
func (t *tracer) rel(unixNS int64) int64 { return unixNS - t.t0.UnixNano() }

// begin opens a lane-0 span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, group string) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Name: name, Layer: layer, Group: group, StartNS: t.now(), EndNS: -1})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	n := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = n
	t.mu.Unlock()
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes partitions the lane-0 timeline of a run whose every span
// descends from root: a span's self time is its duration minus the
// durations of its lane-0 children, summed per layer, with root's own
// self time reported as "other". By construction the values sum to the
// root's duration, the traced wall clock.
func (t *tracer) selfTimes(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Lane == 0 && s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.Lane != 0 {
			continue
		}
		layer := s.Layer
		if s.ID == root {
			layer = "other"
		}
		self[layer] += float64(s.EndNS-s.StartNS-children[s.ID]) / 1e9
	}
	return self
}

// write stores the spans as one JSON document under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(t.spans, func(a, b int) bool { return t.spans[a].ID < t.spans[b].ID })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
