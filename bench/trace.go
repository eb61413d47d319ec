package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call (spans inside the program are a later issue).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"` // spans of one job/unit share it
	Start  int64  `json:"start_ns"`      // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a preallocated slice and writes them out when
// the run ends. A nil *tracer records nothing, which is how tracing is
// switched off: the untraced path pays one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	dropped int
}

// maxSpans bounds the trace; spans past it are dropped and counted.
const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id (0 when tracing is off or the
// buffer is full; end(0) is a no-op).
func (t *tracer) begin(parent int, name, job string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, name, job string, f func(id int)) {
	id := t.begin(parent, name, job)
	f(id)
	t.end(id)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTime is one span name's aggregate.
type selfTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the part covered by child spans
}

// selfTimes aggregates by name; a span's self time is its duration
// minus the union of its children's intervals (children of one parent
// may run concurrently, e.g. the two ranks of a halo probe).
func selfTimes(spans []span) []selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.Calls++
		a.TotalMS += float64(dur) / 1e6
		a.SelfMS += float64(dur-covered(children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ch []span) int64 {
	sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
	var total, hi int64
	for i, c := range ch {
		if i == 0 || c.Start > hi {
			total += c.End - c.Start
			hi = c.End
		} else if c.End > hi {
			total += c.End - hi
			hi = c.End
		}
	}
	return total
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string     `json:"workload"`
	Dropped  int        `json:"dropped_spans"`
	Self     []selfTime `json:"self_times"`
	Spans    []span     `json:"spans"`
}

func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(traceFile{Workload: workload, Dropped: t.dropped, Self: selfTimes(t.spans), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
