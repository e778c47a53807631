package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. parent is the index of the span
// that caused it (-1 for a root), job the workload job it belongs to.
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int
	job        int
}

// tracer keeps spans in memory and writes them once at exit. A nil tracer
// is tracing switched off: begin returns noSpan and end ignores it, so the
// wrappers cost one nil check on the untraced end-to-end runs.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string][]float64 // values observed at layer boundaries (batch sizes)
}

const noSpan = -1

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, job: job})
	return len(t.spans) - 1
}

// end closes the span; an open span (end < 0) is dropped by the readers.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records an already-timed span (a callback that reports a finished
// interval, such as ddp's per-epoch Progress).
func (t *tracer) add(name string, start, end time.Time, parent, job int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.t0), end: end.Sub(t.t0), parent: parent, job: job})
}

// observe records a count seen at a layer boundary.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// observed returns the values recorded under name.
func (t *tracer) observed(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.counts[name]...)
}

// closed returns a copy of the finished spans with their original ids.
func (t *tracer) closed() map[int]span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]span, len(t.spans))
	for i, s := range t.spans {
		if s.end >= s.start {
			out[i] = s
		}
	}
	return out
}

// durationsMs lists the duration of every finished span called name.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover (children may overlap each other, so the covered
// part is the union of their intervals clipped to the parent).
func (t *tracer) selfTimes() map[string]time.Duration {
	spans := t.closed()
	children := map[int][]span{}
	for _, s := range spans {
		if _, ok := spans[s.parent]; ok {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := map[string]time.Duration{}
	for id, s := range spans {
		self[s.name] += s.end - s.start - covered(s, children[id])
	}
	return self
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	edge := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, edge), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the finished spans as Chrome trace-event JSON
// (loadable in chrome://tracing and Perfetto). Each job is a track.
func (t *tracer) writeChrome(path string) error {
	spans := t.closed()
	ids := make([]int, 0, len(spans))
	for id := range spans {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	events := make([]traceEvent, 0, len(ids))
	for _, id := range ids {
		s := spans[id]
		events = append(events, traceEvent{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.job + 1,
			Args: map[string]int{"id": id, "parent": s.parent, "job": s.job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
